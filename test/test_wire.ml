(* Tests for the Legion data model and its binary codec. *)

module Value = Legion_wire.Value
module Codec = Legion_wire.Codec

let value_t : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let arbitrary_value = QCheck.make ~print:Value.to_string Gens.value

let roundtrip =
  QCheck.Test.make ~name:"decode (encode v) = v" ~count:500 arbitrary_value
    (fun v ->
      match Codec.decode (Codec.encode v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let size_matches =
  QCheck.Test.make ~name:"size_bytes = |encode v|" ~count:500 arbitrary_value
    (fun v -> Value.size_bytes v = String.length (Codec.encode v))

let decode_never_raises =
  QCheck.Test.make ~name:"decode of garbage never raises" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      match Codec.decode s with Ok _ | Error _ -> true)

(* Mutation fuzz: flip one byte of a valid encoding — decode must fail
   cleanly or succeed on a different value, never raise. *)
let decode_mutation_robust =
  QCheck.Test.make ~name:"decode survives single-byte corruption" ~count:500
    QCheck.(triple arbitrary_value small_nat (int_bound 255))
    (fun (v, pos, byte) ->
      let enc = Bytes.of_string (Codec.encode v) in
      if Bytes.length enc = 0 then true
      else begin
        let pos = pos mod Bytes.length enc in
        Bytes.set enc pos (Char.chr byte);
        match Codec.decode (Bytes.to_string enc) with
        | Ok _ | Error _ -> true
      end)

let pp_total =
  QCheck.Test.make ~name:"pp never raises" ~count:300 arbitrary_value
    (fun v -> String.length (Value.to_string v) >= 0)

let compare_consistent_with_equal =
  QCheck.Test.make ~name:"compare = 0 iff equal" ~count:300
    QCheck.(pair arbitrary_value arbitrary_value)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

(* A typed naming value stands for its record: every reader but
   [size_bytes] sees the record, so a value and what its bytes decode
   to (records all through) must read alike, against any other value
   too. *)
let reads_as_its_bytes =
  QCheck.Test.make ~name:"a value reads as the record its bytes decode to"
    ~count:500
    QCheck.(pair arbitrary_value arbitrary_value)
    (fun (v, w) ->
      match Codec.decode (Codec.encode v) with
      | Error _ -> false
      | Ok r ->
          let names =
            match r with Value.Record fs -> List.map fst fs | _ -> [ "x" ]
          in
          Value.equal v r && Value.equal r v
          && Value.compare v r = 0
          && Int.equal (Value.compare v w) (Value.compare r w)
          && Int.equal (Value.compare w v) (Value.compare w r)
          && Bool.equal (Value.equal v w) (Value.equal r w)
          && String.equal (Value.to_string v) (Value.to_string r)
          && Value.depth v = Value.depth r
          && List.for_all
               (fun n ->
                 Option.equal Value.equal (Value.field_opt v n) (Value.field_opt r n)
                 && Result.equal ~ok:Value.equal ~error:( = ) (Value.field v n)
                      (Value.field r n))
               names)

let test_scalar_roundtrips () =
  List.iter
    (fun v ->
      match Codec.decode (Codec.encode v) with
      | Ok v' -> Alcotest.check value_t "roundtrip" v v'
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      Value.Unit;
      Value.Bool true;
      Value.Bool false;
      Value.Int 0;
      Value.Int (-1);
      Value.Int max_int;
      Value.Int min_int;
      Value.I64 Int64.max_int;
      Value.I64 Int64.min_int;
      Value.Float 0.0;
      Value.Float (-3.25);
      Value.Float infinity;
      Value.Str "";
      Value.Str "héllo";
      Value.Blob (String.init 256 Char.chr);
      Value.List [];
      Value.Record [];
      Value.Record [ ("a", Value.List [ Value.Int 1; Value.Str "x" ]) ];
    ]

let test_truncated_fails () =
  let enc = Codec.encode (Value.Str "hello world") in
  for cut = 0 to String.length enc - 1 do
    match Codec.decode (String.sub enc 0 cut) with
    | Ok _ -> Alcotest.failf "truncation at %d decoded" cut
    | Error _ -> ()
  done

let test_trailing_fails () =
  let enc = Codec.encode Value.Unit ^ "x" in
  match Codec.decode enc with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error msg ->
      Alcotest.(check bool) "mentions trailing" true
        (String.length msg > 0)

let test_unknown_tag_fails () =
  match Codec.decode "\xff" with
  | Ok _ -> Alcotest.fail "unknown tag accepted"
  | Error _ -> ()

let test_deep_nesting_rejected () =
  (* A crafted buffer of 100k nested list headers must fail cleanly,
     not blow the stack. *)
  let buf = Buffer.create 600_000 in
  for _ = 1 to 100_000 do
    Buffer.add_string buf "\x07\x00\x00\x00\x01"
  done;
  Buffer.add_char buf '\x00';
  (match Codec.decode (Buffer.contents buf) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absurd nesting accepted");
  (* Moderate nesting still decodes. *)
  let rec nest n v = if n = 0 then v else nest (n - 1) (Value.List [ v ]) in
  let v = nest 100 Value.Unit in
  match Codec.decode (Codec.encode v) with
  | Ok v' -> Alcotest.(check bool) "100 levels ok" true (Value.equal v v')
  | Error e -> Alcotest.failf "100 levels rejected: %s" e

let test_record_duplicate_rejected () =
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Value.record: duplicate field names") (fun () ->
      ignore (Value.record [ ("a", Value.Unit); ("a", Value.Int 1) ]))

(* Records with repeated names: the first field of a name wins, as
   with [List.assoc_opt]. *)
let field_matches_assoc =
  let open QCheck in
  let name = Gen.oneofl [ "a"; "b"; "ab"; "" ] in
  let fields = Gen.(list_size (0 -- 6) (pair name (map (fun i -> Value.Int i) small_nat))) in
  Test.make ~name:"field = List.assoc_opt" ~count:500
    (make
       ~print:(fun (fs, n) -> Printf.sprintf "%s in %s" n (Value.to_string (Value.Record fs)))
       Gen.(pair fields name))
    (fun (fs, n) ->
      let v = Value.Record fs in
      let expect = List.assoc_opt n fs in
      Option.equal Value.equal (Value.field_opt v n) expect
      &&
      match (Value.field v n, expect) with
      | Ok x, Some y -> Value.equal x y
      | Error (`Missing_field m), None -> String.equal m n
      | _ -> false)

let test_accessors () =
  Alcotest.(check bool) "to_int ok" true (Value.to_int (Value.Int 3) = Ok 3);
  Alcotest.(check bool) "to_int wrong" true
    (Result.is_error (Value.to_int Value.Unit));
  Alcotest.(check bool) "field ok" true
    (Value.field (Value.Record [ ("x", Value.Int 1) ]) "x" = Ok (Value.Int 1));
  Alcotest.(check bool) "field missing" true
    (Result.is_error (Value.field (Value.Record []) "x"));
  Alcotest.(check bool) "field on non-record" true
    (Result.is_error (Value.field Value.Unit "x"));
  Alcotest.(check bool) "to_list" true
    (Value.to_list Value.to_int (Value.List [ Value.Int 1; Value.Int 2 ])
    = Ok [ 1; 2 ]);
  Alcotest.(check bool) "to_list inner failure" true
    (Result.is_error (Value.to_list Value.to_int (Value.List [ Value.Unit ])));
  Alcotest.(check bool) "option none" true
    (Value.to_option Value.to_int (Value.List []) = Ok None);
  Alcotest.(check bool) "option some" true
    (Value.to_option Value.to_int (Value.List [ Value.Int 5 ]) = Ok (Some 5))

let test_of_option_roundtrip () =
  let v = Value.of_option Value.of_int (Some 3) in
  Alcotest.(check bool) "some" true (Value.to_option Value.to_int v = Ok (Some 3));
  let v = Value.of_option Value.of_int None in
  Alcotest.(check bool) "none" true (Value.to_option Value.to_int v = Ok None)

let test_depth () =
  Alcotest.(check int) "scalar" 1 (Value.depth Value.Unit);
  Alcotest.(check int) "nested" 3
    (Value.depth (Value.List [ Value.Record [ ("a", Value.Int 1) ] ]))

(* --- the error taxonomy: every variant survives the wire --- *)

module Err = Legion_rt.Err

let err_t : Err.t Alcotest.testable =
  Alcotest.testable (fun ppf e -> Err.pp ppf e) Err.equal

(* --- checksummed envelope (CRC-32 framing) --- *)

module Envelope = Legion_wire.Envelope

let envelope_roundtrip =
  QCheck.Test.make ~name:"unseal (seal v) = Ok v" ~count:500 arbitrary_value
    (fun v ->
      match Envelope.unseal (Envelope.seal v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

(* The integrity guarantee behind the corruption fault: ANY single-byte
   change — header or body — must be rejected, fail-closed, without an
   exception. (CRC-32 detects all single-byte errors; a flip in the
   stored checksum itself just mismatches the recomputed one.) *)
let envelope_rejects_mutation =
  QCheck.Test.make ~name:"unseal rejects any single-byte mutation" ~count:500
    QCheck.(triple arbitrary_value small_nat (int_bound 255))
    (fun (v, pos, byte) ->
      let sealed = Bytes.of_string (Envelope.seal v) in
      let pos = pos mod Bytes.length sealed in
      if Bytes.get sealed pos = Char.chr byte then true
      else begin
        Bytes.set sealed pos (Char.chr byte);
        match Envelope.unseal (Bytes.to_string sealed) with
        | Error _ -> true
        | Ok _ -> false
      end)

let envelope_rejects_truncation =
  QCheck.Test.make ~name:"unseal rejects any truncation" ~count:500
    QCheck.(pair arbitrary_value small_nat)
    (fun (v, cut) ->
      let sealed = Envelope.seal v in
      let keep = cut mod String.length sealed in
      match Envelope.unseal (String.sub sealed 0 keep) with
      | Error _ -> true
      | Ok _ -> false)

let envelope_garbage_total =
  QCheck.Test.make ~name:"unseal of garbage never raises" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> match Envelope.unseal s with Ok _ | Error _ -> true)

(* The native-int CRC and encoder against the Int32 CRC and the
   Int64-boxing encoder they replaced ([Envelope_ref]). *)
let crc_matches_ref =
  QCheck.Test.make ~name:"crc32 = the Int32 reference" ~count:500
    QCheck.(string_of_size Gen.(0 -- 256))
    (fun s -> Int32.equal (Envelope.crc32 s) (Envelope_ref.crc32 s))

let seal_matches_ref =
  QCheck.Test.make ~name:"seal and encode write the reference bytes" ~count:500
    arbitrary_value (fun v ->
      String.equal (Codec.encode v) (Envelope_ref.encode v)
      && String.equal (Envelope.seal v) (Envelope_ref.seal v))

let test_int_edges_match_ref () =
  List.iter
    (fun i ->
      let v = Value.List [ Value.Int i; Value.I64 (Int64.of_int i) ] in
      Alcotest.(check string)
        (Printf.sprintf "seal %d" i) (Envelope_ref.seal v) (Envelope.seal v))
    [ min_int; min_int + 1; -256; -1; 0; 1; 255; 256; max_int ]

let test_envelope_crc_vector () =
  (* The classic IEEE 802.3 check vector pins the polynomial and
     reflection conventions. *)
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l
    (Envelope.crc32 "123456789");
  Alcotest.(check int) "header size" 4 Envelope.header_bytes

let arbitrary_err = QCheck.make ~print:Err.to_string Gens.err

let err_value_roundtrip =
  QCheck.Test.make ~name:"Err.of_value (to_value e) = e" ~count:500
    arbitrary_err (fun e ->
      match Err.of_value (Err.to_value e) with
      | Ok e' -> Err.equal e e'
      | Error _ -> false)

(* The full path a remote error reply actually takes: struct -> value ->
   bytes -> value -> struct. *)
let err_codec_roundtrip =
  QCheck.Test.make ~name:"Err survives encode/decode" ~count:500
    arbitrary_err (fun e ->
      match Codec.decode (Codec.encode (Err.to_value e)) with
      | Error _ -> false
      | Ok v -> (
          match Err.of_value v with
          | Ok e' -> Err.equal e e'
          | Error _ -> false))

(* Pre-upgrade peers encode with fields missing; each legacy shape must
   decode to the documented default, not fail the call. *)
let test_err_legacy_decodes () =
  let check name v expected =
    match Err.of_value v with
    | Ok e -> Alcotest.check err_t name expected e
    | Error msg -> Alcotest.failf "%s failed to decode: %s" name msg
  in
  check "nqm without epoch"
    (Value.Record
       [ ("c", Value.Str "nqm"); ("h", Value.Int 1); ("n", Value.Int 3) ])
    (Err.No_quorum { have = 1; need = 3; epoch = 0 });
  check "tlk without holder or hint"
    (Value.Record [ ("c", Value.Str "tlk") ])
    (Err.Txn_locked { holder = ""; retry_after = 0.0 });
  check "tlk with holder only"
    (Value.Record [ ("c", Value.Str "tlk"); ("h", Value.Str "t9") ])
    (Err.Txn_locked { holder = "t9"; retry_after = 0.0 });
  check "txa without txn id"
    (Value.Record [ ("c", Value.Str "txa") ])
    (Err.Txn_aborted { txn = "" });
  check "qex without tenant or hint"
    (Value.Record [ ("c", Value.Str "qex") ])
    (Err.Quota_exceeded { tenant = ""; retry_after = 0.0 });
  check "dny without tenant or reason"
    (Value.Record [ ("c", Value.Str "dny") ])
    (Err.Denied { tenant = ""; reason = "" });
  (* Unknown codes from a newer peer are an error, not a crash. *)
  (match Err.of_value (Value.Record [ ("c", Value.Str "zzz") ]) with
  | Error _ -> ()
  | Ok e -> Alcotest.failf "unknown code decoded as %s" (Err.to_string e));
  (* A non-record is an error, not a crash. *)
  match Err.of_value (Value.Int 3) with
  | Error _ -> ()
  | Ok e -> Alcotest.failf "non-record decoded as %s" (Err.to_string e)

let test_err_classification () =
  Alcotest.(check bool) "lock rejection retryable" true
    (Err.is_retryable (Err.Txn_locked { holder = "t"; retry_after = 0.1 }));
  Alcotest.(check bool) "abort verdict not retryable" false
    (Err.is_retryable (Err.Txn_aborted { txn = "t" }));
  Alcotest.(check bool) "lock is not a delivery failure" false
    (Err.is_delivery_failure
       (Err.Txn_locked { holder = "t"; retry_after = 0.1 }));
  Alcotest.(check (option (float 1e-9))) "lock carries its retry hint"
    (Some 0.25)
    (Err.retry_after (Err.Txn_locked { holder = "t"; retry_after = 0.25 }));
  Alcotest.(check bool) "quota shed retryable" true
    (Err.is_retryable (Err.Quota_exceeded { tenant = "m"; retry_after = 0.1 }));
  Alcotest.(check bool) "quota shed is overload, not delivery failure" true
    (Err.is_overload (Err.Quota_exceeded { tenant = "m"; retry_after = 0.1 })
    && not
         (Err.is_delivery_failure
            (Err.Quota_exceeded { tenant = "m"; retry_after = 0.1 })));
  Alcotest.(check (option (float 1e-9))) "quota shed carries its retry hint"
    (Some 0.5)
    (Err.retry_after (Err.Quota_exceeded { tenant = "m"; retry_after = 0.5 }));
  Alcotest.(check bool) "policy denial terminal" false
    (Err.is_retryable (Err.Denied { tenant = "e"; reason = "policy" })
    || Err.is_delivery_failure (Err.Denied { tenant = "e"; reason = "policy" }))

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_scalar_roundtrips;
          Alcotest.test_case "truncated input fails" `Quick test_truncated_fails;
          Alcotest.test_case "trailing bytes fail" `Quick test_trailing_fails;
          Alcotest.test_case "unknown tag fails" `Quick test_unknown_tag_fails;
          Alcotest.test_case "deep nesting rejected" `Quick test_deep_nesting_rejected;
          QCheck_alcotest.to_alcotest roundtrip;
          QCheck_alcotest.to_alcotest size_matches;
          QCheck_alcotest.to_alcotest decode_never_raises;
          QCheck_alcotest.to_alcotest decode_mutation_robust;
        ] );
      ( "value",
        [
          Alcotest.test_case "duplicate record fields" `Quick
            test_record_duplicate_rejected;
          Alcotest.test_case "accessors" `Quick test_accessors;
          QCheck_alcotest.to_alcotest field_matches_assoc;
          Alcotest.test_case "option encoding" `Quick test_of_option_roundtrip;
          Alcotest.test_case "depth" `Quick test_depth;
          QCheck_alcotest.to_alcotest compare_consistent_with_equal;
          QCheck_alcotest.to_alcotest pp_total;
          QCheck_alcotest.to_alcotest reads_as_its_bytes;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "CRC-32 check vector" `Quick
            test_envelope_crc_vector;
          QCheck_alcotest.to_alcotest envelope_roundtrip;
          QCheck_alcotest.to_alcotest envelope_rejects_mutation;
          QCheck_alcotest.to_alcotest envelope_rejects_truncation;
          QCheck_alcotest.to_alcotest envelope_garbage_total;
          QCheck_alcotest.to_alcotest crc_matches_ref;
          QCheck_alcotest.to_alcotest seal_matches_ref;
          Alcotest.test_case "integer edges match the reference" `Quick
            test_int_edges_match_ref;
        ] );
      ( "errors",
        [
          Alcotest.test_case "legacy encodings decode" `Quick
            test_err_legacy_decodes;
          Alcotest.test_case "retryability classification" `Quick
            test_err_classification;
          QCheck_alcotest.to_alcotest err_value_roundtrip;
          QCheck_alcotest.to_alcotest err_codec_roundtrip;
        ] );
    ]
