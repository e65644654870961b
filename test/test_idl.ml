(* Tests for the IDL: types, interfaces, parsing. *)

module Ty = Legion_idl.Ty
module Interface = Legion_idl.Interface
module Parser = Legion_idl.Parser
module Value = Legion_wire.Value
module Loid = Legion_naming.Loid

let ty_t = Alcotest.testable Ty.pp Ty.equal
let iface_t = Alcotest.testable Interface.pp Interface.equal

(* --- Types --- *)

let test_ty_check_scalars () =
  Alcotest.(check bool) "int" true (Ty.check Ty.Tint (Value.Int 3));
  Alcotest.(check bool) "i64 as int" true (Ty.check Ty.Tint (Value.I64 3L));
  Alcotest.(check bool) "str not int" false (Ty.check Ty.Tint (Value.Str "x"));
  Alcotest.(check bool) "any matches" true (Ty.check Ty.Tany (Value.Str "x"));
  Alcotest.(check bool) "unit" true (Ty.check Ty.Tunit Value.Unit);
  Alcotest.(check bool) "blob" true (Ty.check Ty.Tblob (Value.Blob ""));
  Alcotest.(check bool) "str is not blob" false (Ty.check Ty.Tblob (Value.Str ""))

let test_ty_check_loid_binding () =
  let l = Loid.make ~class_id:1L ~class_specific:2L () in
  Alcotest.(check bool) "loid" true (Ty.check Ty.Tloid (Loid.to_value l));
  Alcotest.(check bool) "not loid" false (Ty.check Ty.Tloid (Value.Int 1));
  (* A typed LOID checks as the record it stands for. *)
  Alcotest.(check bool) "loid as its record" true
    (Ty.check
       (Ty.Trecord [ ("cid", Ty.Tint); ("spec", Ty.Tint); ("key", Ty.Tblob) ])
       (Loid.to_value l));
  Alcotest.(check bool) "loid is no list" false
    (Ty.check (Ty.Tlist Ty.Tint) (Loid.to_value l))

let test_ty_check_compound () =
  Alcotest.(check bool) "list" true
    (Ty.check (Ty.Tlist Ty.Tint) (Value.List [ Value.Int 1; Value.Int 2 ]));
  Alcotest.(check bool) "bad element" false
    (Ty.check (Ty.Tlist Ty.Tint) (Value.List [ Value.Str "x" ]));
  Alcotest.(check bool) "opt none" true (Ty.check (Ty.Topt Ty.Tint) (Value.List []));
  Alcotest.(check bool) "opt some" true
    (Ty.check (Ty.Topt Ty.Tint) (Value.List [ Value.Int 1 ]));
  Alcotest.(check bool) "opt too many" false
    (Ty.check (Ty.Topt Ty.Tint) (Value.List [ Value.Int 1; Value.Int 2 ]));
  let rty = Ty.Trecord [ ("a", Ty.Tint); ("b", Ty.Tstr) ] in
  Alcotest.(check bool) "record any order" true
    (Ty.check rty (Value.Record [ ("b", Value.Str "s"); ("a", Value.Int 1) ]));
  Alcotest.(check bool) "missing field" false
    (Ty.check rty (Value.Record [ ("a", Value.Int 1) ]));
  Alcotest.(check bool) "extra field" false
    (Ty.check rty
       (Value.Record [ ("a", Value.Int 1); ("b", Value.Str "s"); ("c", Value.Unit) ]))

(* Random types; MPL has no record type, so its generator draws none. *)
let ty_gen_of ~records =
  QCheck.Gen.(
    sized
      (fix (fun self n ->
           let base =
             oneofl
               [ Ty.Tunit; Ty.Tbool; Ty.Tint; Ty.Tfloat; Ty.Tstr; Ty.Tblob;
                 Ty.Tloid; Ty.Tbinding; Ty.Tany ]
           in
           let record =
             map
               (fun ts ->
                 Ty.Trecord (List.mapi (fun i t -> (Printf.sprintf "f%d" i, t)) ts))
               (list_size (1 -- 3) (self (n / 2)))
           in
           if n <= 1 then base
           else
             frequency
               ([
                  (3, base);
                  (1, map (fun t -> Ty.Tlist t) (self (n / 2)));
                  (1, map (fun t -> Ty.Topt t) (self (n / 2)));
                ]
               @ if records then [ (1, record) ] else []))))

let ty_gen = ty_gen_of ~records:true

let ty_roundtrip_value =
  QCheck.Test.make ~name:"ty wire roundtrip" ~count:300 (QCheck.make ty_gen)
    (fun t ->
      match Ty.of_value (Ty.to_value t) with
      | Ok t' -> Ty.equal t t'
      | Error _ -> false)

let ty_roundtrip_syntax =
  QCheck.Test.make ~name:"ty parses its own printing" ~count:300 (QCheck.make ty_gen)
    (fun t ->
      match Parser.ty (Ty.to_string t) with
      | Ok t' -> Ty.equal t t'
      | Error _ -> false)

(* --- Interfaces --- *)

let sig_ name params ret = { Interface.meth = name; params; ret }

let test_interface_build () =
  let i =
    Interface.make ~name:"I"
      [ sig_ "A" [ ("x", Ty.Tint) ] Ty.Tint; sig_ "B" [] Ty.Tunit ]
  in
  Alcotest.(check (list string)) "methods" [ "A"; "B" ] (Interface.method_names i);
  Alcotest.(check bool) "mem" true (Interface.mem i "A");
  Alcotest.(check bool) "not mem" false (Interface.mem i "C");
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Interface.make: duplicate method names") (fun () ->
      ignore (Interface.make ~name:"I" [ sig_ "A" [] Ty.Tunit; sig_ "A" [] Ty.Tunit ]))

let test_interface_merge_precedence () =
  let a = Interface.make ~name:"A" [ sig_ "M" [ ("x", Ty.Tint) ] Ty.Tint ] in
  let b =
    Interface.make ~name:"B"
      [ sig_ "M" [] Ty.Tunit; sig_ "N" [] Ty.Tunit ]
  in
  let m = Interface.merge a b in
  Alcotest.(check string) "keeps left name" "A" (Interface.name m);
  Alcotest.(check (list string)) "union" [ "M"; "N" ] (Interface.method_names m);
  (* The derived class's definition of M wins (§2.1.1). *)
  (match Interface.find m "M" with
  | Some s -> Alcotest.(check int) "left signature wins" 1 (List.length s.Interface.params)
  | None -> Alcotest.fail "M missing");
  (* Merge is idempotent. *)
  Alcotest.check iface_t "idempotent" m (Interface.merge m b)

let test_interface_add_replaces () =
  let i = Interface.make ~name:"I" [ sig_ "M" [] Ty.Tunit ] in
  let i = Interface.add i (sig_ "M" [ ("x", Ty.Tint) ] Ty.Tint) in
  match Interface.find i "M" with
  | Some s -> Alcotest.(check int) "replaced" 1 (List.length s.Interface.params)
  | None -> Alcotest.fail "M missing"

let test_check_call () =
  let i = Interface.make ~name:"I" [ sig_ "M" [ ("x", Ty.Tint); ("y", Ty.Tstr) ] Ty.Tunit ] in
  Alcotest.(check bool) "ok" true
    (Interface.check_call i ~meth:"M" ~args:[ Value.Int 1; Value.Str "a" ] = Ok ());
  Alcotest.(check bool) "arity" true
    (Result.is_error (Interface.check_call i ~meth:"M" ~args:[ Value.Int 1 ]));
  Alcotest.(check bool) "type" true
    (Result.is_error
       (Interface.check_call i ~meth:"M" ~args:[ Value.Str "a"; Value.Str "b" ]));
  Alcotest.(check bool) "unknown" true
    (Result.is_error (Interface.check_call i ~meth:"Z" ~args:[]))

let test_interface_wire_roundtrip () =
  let i =
    Interface.make ~name:"Counter"
      [
        sig_ "Increment" [ ("d", Ty.Tint) ] Ty.Tint;
        sig_ "Get" [] Ty.Tint;
        sig_ "Describe" [ ("opts", Ty.Trecord [ ("verbose", Ty.Tbool) ]) ] Ty.Tstr;
      ]
  in
  match Interface.of_value (Interface.to_value i) with
  | Ok i' -> Alcotest.check iface_t "roundtrip" i i'
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

(* --- Parser --- *)

let test_parse_simple () =
  let src = "interface Counter { Increment(d: int): int; Get(): int; Reset(); }" in
  match Parser.interface src with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Parser.pp_error e)
  | Ok i ->
      Alcotest.(check string) "name" "Counter" (Interface.name i);
      Alcotest.(check (list string)) "methods" [ "Increment"; "Get"; "Reset" ]
        (Interface.method_names i);
      (match Interface.find i "Reset" with
      | Some s -> Alcotest.check ty_t "implicit unit return" Ty.Tunit s.Interface.ret
      | None -> Alcotest.fail "Reset missing")

let test_parse_complex_types () =
  let src =
    "interface X {\n\
     // a comment\n\
     F(a: list<record{x: int, y: opt<str>}>, b: loid): binding;\n\
     }"
  in
  match Parser.interface src with
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Parser.pp_error e)
  | Ok i -> (
      match Interface.find i "F" with
      | Some s ->
          Alcotest.check ty_t "param type"
            (Ty.Tlist (Ty.Trecord [ ("x", Ty.Tint); ("y", Ty.Topt Ty.Tstr) ]))
            (snd (List.hd s.Interface.params));
          Alcotest.check ty_t "return" Ty.Tbinding s.Interface.ret
      | None -> Alcotest.fail "F missing")

let test_parse_file_multiple () =
  let src = "interface A { M(); } interface B { N(); };" in
  match Parser.file src with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first" "A" (Interface.name a);
      Alcotest.(check string) "second" "B" (Interface.name b)
  | Ok l -> Alcotest.failf "expected 2 interfaces, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse: %s" (Format.asprintf "%a" Parser.pp_error e)

let test_parse_errors_positioned () =
  match Parser.interface "interface A {\n  M(x int);\n}" with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error e ->
      Alcotest.(check int) "line" 2 e.Parser.line;
      Alcotest.(check bool) "column sane" true (e.Parser.col > 0)

let test_parse_rejects () =
  List.iter
    (fun src ->
      match Parser.interface src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [
      "";
      "interface { M(); }";
      "interface A { M() }";
      "interface A { M(): nosuchtype; }";
      "interface A { M(); } trailing";
      "interface A { M(x: list<int); }";
      "interface A { M(); M(); }";
      "interface A { 3(); }";
      "interface A { M(); /* unterminated";
    ]

let test_pp_parse_roundtrip () =
  let i =
    Interface.make ~name:"RoundTrip"
      [
        sig_ "A" [ ("x", Ty.Tlist (Ty.Topt Ty.Tloid)) ] Ty.Tany;
        sig_ "B" [ ("r", Ty.Trecord [ ("f", Ty.Tfloat) ]) ] Ty.Tunit;
      ]
  in
  let printed = Format.asprintf "%a" Interface.pp i in
  match Parser.interface printed with
  | Ok i' -> Alcotest.check iface_t "pp then parse" i i'
  | Error e -> Alcotest.failf "reparse of %S: %s" printed (Format.asprintf "%a" Parser.pp_error e)

let iface_gen_of ty_gen =
  QCheck.Gen.(
    let meth_name i = Printf.sprintf "M%d" i in
    map
      (fun sigs ->
        Interface.make ~name:"Gen"
          (List.mapi
             (fun i (params, ret) ->
               {
                 Interface.meth = meth_name i;
                 params = List.mapi (fun j t -> (Printf.sprintf "p%d" j, t)) params;
                 ret;
               })
             sigs))
      (list_size (0 -- 5) (pair (list_size (0 -- 3) ty_gen) ty_gen)))

let iface_gen = iface_gen_of ty_gen

let interface_pp_parse_roundtrip =
  QCheck.Test.make ~name:"interface pp/parse roundtrip" ~count:100
    (QCheck.make ~print:(Format.asprintf "%a" Interface.pp) iface_gen)
    (fun i ->
      match Parser.interface (Format.asprintf "%a" Interface.pp i) with
      | Ok i' -> Interface.equal i i'
      | Error _ -> false)

let interface_wire_roundtrip_prop =
  QCheck.Test.make ~name:"interface wire roundtrip (random)" ~count:100
    (QCheck.make iface_gen)
    (fun i ->
      match Interface.of_value (Interface.to_value i) with
      | Ok i' -> Interface.equal i i'
      | Error _ -> false)

(* --- MPL declarations (the paper's second IDL), read by the same Parser --- *)

let test_mpl_simple () =
  let src =
    "mentat class Counter {\n     \tint Increment(int d);\n     \tint Get();\n     \tvoid Reset();\n     };"
  in
  match Parser.interface src with
  | Error e -> Alcotest.failf "mpl: %s" (Format.asprintf "%a" Parser.pp_error e)
  | Ok i ->
      Alcotest.(check string) "name" "Counter" (Interface.name i);
      Alcotest.(check (list string)) "methods" [ "Increment"; "Get"; "Reset" ]
        (Interface.method_names i);
      (match Interface.find i "Reset" with
      | Some s -> Alcotest.check ty_t "void is unit" Ty.Tunit s.Interface.ret
      | None -> Alcotest.fail "Reset missing");
      match Interface.find i "Increment" with
      | Some s ->
          Alcotest.(check (list string)) "param names" [ "d" ]
            (List.map fst s.Interface.params);
          Alcotest.check ty_t "param type" Ty.Tint (snd (List.hd s.Interface.params))
      | None -> Alcotest.fail "Increment missing"

let test_mpl_types_and_qualifiers () =
  let src =
    "mentat class Fancy {\n     /* concurrency qualifiers are Mentat compiler directives */\n     stateless sequence<string> Names(int k);\n     regular double Mean(sequence<float> xs);\n     optional<loid> Find(char * name);\n     any Raw(blob b);\n     }"
  in
  match Parser.interface src with
  | Error e -> Alcotest.failf "mpl: %s" (Format.asprintf "%a" Parser.pp_error e)
  | Ok i ->
      let ret m =
        match Interface.find i m with
        | Some s -> s.Interface.ret
        | None -> Alcotest.failf "%s missing" m
      in
      Alcotest.check ty_t "sequence<string>" (Ty.Tlist Ty.Tstr) (ret "Names");
      Alcotest.check ty_t "double" Ty.Tfloat (ret "Mean");
      Alcotest.check ty_t "optional<loid>" (Ty.Topt Ty.Tloid) (ret "Find");
      (match Interface.find i "Find" with
      | Some s -> Alcotest.check ty_t "char* is str" Ty.Tstr (snd (List.hd s.Interface.params))
      | None -> Alcotest.fail "Find missing");
      Alcotest.check ty_t "any" Ty.Tany (ret "Raw")

let test_mpl_file_multiple () =
  let src = "mentat class A { void M(); };\nmentat class B { int N(); }" in
  match Parser.file src with
  | Ok [ a; b ] ->
      Alcotest.(check string) "A" "A" (Interface.name a);
      Alcotest.(check string) "B" "B" (Interface.name b)
  | Ok l -> Alcotest.failf "expected 2, got %d" (List.length l)
  | Error e -> Alcotest.failf "mpl: %s" (Format.asprintf "%a" Parser.pp_error e)

let test_mpl_rejects () =
  List.iter
    (fun src ->
      match Parser.interface src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error _ -> ())
    [
      "";
      "class A { void M(); }";
      "mentat class A { void M() }";
      "mentat class A { nosuchtype M(); }";
      "mentat class A { void M(); } junk";
      "mentat class A { void M(); void M(); }";
      "mentat class A { /* unterminated";
      "persistent interface A { M(); }";
      "mentat interface A { }";
    ]

let test_mpl_equivalent_to_idl () =
  (* The two syntaxes produce identical interfaces for equivalent
     declarations. *)
  let from_mpl =
    Parser.interface
      "mentat class Counter { int Increment(int d); int Get(); void Reset(); }"
  in
  let from_idl =
    Parser.interface
      "interface Counter { Increment(d: int): int; Get(): int; Reset(); }"
  in
  match (from_mpl, from_idl) with
  | Ok a, Ok b -> Alcotest.check iface_t "same interface" b a
  | _ -> Alcotest.fail "one syntax failed"

(* Print an interface as a token list in either syntax, then join the
   tokens with whitespace or a comment in either style. The MPL printer
   draws Mentat qualifiers and the alternative C++ spellings. *)
let rec corba_ty_toks = function
  | Ty.Tlist t -> ("list" :: "<" :: corba_ty_toks t) @ [ ">" ]
  | Ty.Topt t -> ("opt" :: "<" :: corba_ty_toks t) @ [ ">" ]
  | t -> [ Ty.to_string t ]

let rec mpl_ty_toks t =
  let open QCheck.Gen in
  match t with
  | Ty.Tunit -> return [ "void" ]
  | Ty.Tint -> oneofl [ [ "int" ]; [ "long" ]; [ "short" ] ]
  | Ty.Tfloat -> oneofl [ [ "float" ]; [ "double" ] ]
  | Ty.Tstr -> oneofl [ [ "string" ]; [ "char"; "*" ] ]
  | Ty.Tblob -> oneofl [ [ "blob" ]; [ "bytes" ] ]
  | Ty.Tlist t -> map (fun ts -> ("sequence" :: "<" :: ts) @ [ ">" ]) (mpl_ty_toks t)
  | Ty.Topt t -> map (fun ts -> ("optional" :: "<" :: ts) @ [ ">" ]) (mpl_ty_toks t)
  | Ty.Trecord _ -> invalid_arg "MPL has no record type"
  | Ty.Tbool | Ty.Tloid | Ty.Tbinding | Ty.Tany -> return [ Ty.to_string t ]

let qualifiers_gen =
  QCheck.Gen.(
    list_size (0 -- 2)
      (oneofl [ "regular"; "sequential"; "select"; "stateless"; "persistent" ]))

let optional_semi = QCheck.Gen.oneofl [ []; [ ";" ] ]
let commas items =
  List.concat (List.mapi (fun k x -> if k = 0 then x else "," :: x) items)

let corba_toks i =
  let open QCheck.Gen in
  let meth (s : Interface.signature) =
    let params = commas (List.map (fun (n, t) -> n :: ":" :: corba_ty_toks t) s.params) in
    let+ ret =
      if Ty.equal s.ret Ty.Tunit then oneofl [ []; [ ":"; "unit" ] ]
      else return (":" :: corba_ty_toks s.ret)
    in
    (s.meth :: "(" :: params) @ (")" :: ret) @ [ ";" ]
  in
  let* methods = flatten_l (List.map meth (Interface.signatures i)) in
  let+ semi = optional_semi in
  ("interface" :: Interface.name i :: "{" :: List.concat methods) @ ("}" :: semi)

let mpl_toks i =
  let open QCheck.Gen in
  let param (n, t) =
    let* q = qualifiers_gen in
    let+ ty = mpl_ty_toks t in
    q @ ty @ [ n ]
  in
  let meth (s : Interface.signature) =
    let* q = qualifiers_gen in
    let* ret = mpl_ty_toks s.ret in
    let+ params = flatten_l (List.map param s.params) in
    q @ ret @ (s.meth :: "(" :: commas params) @ [ ")"; ";" ]
  in
  let* q = qualifiers_gen in
  let* methods = flatten_l (List.map meth (Interface.signatures i)) in
  let+ semi = optional_semi in
  q @ ("mentat" :: "class" :: Interface.name i :: "{" :: List.concat methods)
  @ ("}" :: semi)

let render toks =
  let open QCheck.Gen in
  let gap =
    oneofl [ " "; "\n  "; " // note\n"; " /* note */ "; "/**/"; "/* two\n lines */" ]
  in
  let+ gaps = list_repeat (List.length toks) gap in
  String.concat "" (List.map2 ( ^ ) gaps toks)

let two_syntaxes_agree =
  let gen =
    QCheck.Gen.(
      let* i = iface_gen_of (ty_gen_of ~records:false) in
      let* corba = corba_toks i >>= render in
      let+ mpl = mpl_toks i >>= render in
      (i, corba, mpl))
  in
  QCheck.Test.make ~name:"CORBA and MPL texts agree" ~count:300
    (QCheck.make ~print:(fun (_, corba, mpl) -> corba ^ "\n----\n" ^ mpl) gen)
    (fun (i, corba, mpl) ->
      let one src =
        match Parser.interface src with Ok i' -> Interface.equal i i' | Error _ -> false
      in
      let both src =
        match Parser.file src with
        | Ok [ a; b ] -> Interface.equal i a && Interface.equal i b
        | Ok _ | Error _ -> false
      in
      one corba && one mpl && both (corba ^ "\n" ^ mpl) && both (mpl ^ "\n" ^ corba))

let () =
  Alcotest.run "idl"
    [
      ( "ty",
        [
          Alcotest.test_case "scalar checks" `Quick test_ty_check_scalars;
          Alcotest.test_case "loid/binding checks" `Quick test_ty_check_loid_binding;
          Alcotest.test_case "compound checks" `Quick test_ty_check_compound;
          QCheck_alcotest.to_alcotest ty_roundtrip_value;
          QCheck_alcotest.to_alcotest ty_roundtrip_syntax;
        ] );
      ( "interface",
        [
          Alcotest.test_case "build" `Quick test_interface_build;
          Alcotest.test_case "merge precedence" `Quick test_interface_merge_precedence;
          Alcotest.test_case "add replaces" `Quick test_interface_add_replaces;
          Alcotest.test_case "check_call" `Quick test_check_call;
          Alcotest.test_case "wire roundtrip" `Quick test_interface_wire_roundtrip;
        ] );
      ( "mpl",
        [
          Alcotest.test_case "simple class" `Quick test_mpl_simple;
          Alcotest.test_case "types and qualifiers" `Quick test_mpl_types_and_qualifiers;
          Alcotest.test_case "multiple classes" `Quick test_mpl_file_multiple;
          Alcotest.test_case "rejects malformed input" `Quick test_mpl_rejects;
          Alcotest.test_case "front-ends agree" `Quick test_mpl_equivalent_to_idl;
          QCheck_alcotest.to_alcotest two_syntaxes_agree;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple interface" `Quick test_parse_simple;
          Alcotest.test_case "complex types" `Quick test_parse_complex_types;
          Alcotest.test_case "multiple interfaces" `Quick test_parse_file_multiple;
          Alcotest.test_case "errors carry position" `Quick test_parse_errors_positioned;
          Alcotest.test_case "rejects malformed input" `Quick test_parse_rejects;
          Alcotest.test_case "pp/parse roundtrip" `Quick test_pp_parse_roundtrip;
          QCheck_alcotest.to_alcotest interface_pp_parse_roundtrip;
          QCheck_alcotest.to_alcotest interface_wire_roundtrip_prop;
        ] );
    ]
