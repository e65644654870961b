type error = { line : int; col : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.col e.message

type token =
  | Ident of string
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Langle
  | Rangle
  | Colon
  | Semi
  | Comma
  | Star
  | Eof

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Langle -> "'<'"
  | Rangle -> "'>'"
  | Colon -> "':'"
  | Semi -> "';'"
  | Comma -> "','"
  | Star -> "'*'"
  | Eof -> "end of input"

type lexed = { tok : token; line : int; col : int }

exception Parse_error of error

let fail ~line ~col fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; col; message })) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* One lexer for both syntaxes: the union of their punctuation, and both
   comment styles. *)
let lex src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let emit tok = toks := { tok; line = !line; col = !col } :: !toks in
  let advance () =
    (if !i < n then
       if src.[!i] = '\n' then begin
         incr line;
         col := 1
       end
       else incr col);
    incr i
  in
  let at j c = j < n && src.[j] = c in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then advance ()
    else if c = '/' && at (!i + 1) '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && at (!i + 1) '*' then begin
      advance ();
      advance ();
      while !i < n && not (at !i '*' && at (!i + 1) '/') do
        advance ()
      done;
      if !i >= n then fail ~line:!line ~col:!col "unterminated comment";
      advance ();
      advance ()
    end
    else if is_ident_start c then begin
      let start = !i in
      let start_line = !line and start_col = !col in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      toks :=
        { tok = Ident (String.sub src start (!i - start)); line = start_line; col = start_col }
        :: !toks
    end
    else begin
      (match c with
      | '{' -> emit Lbrace
      | '}' -> emit Rbrace
      | '(' -> emit Lparen
      | ')' -> emit Rparen
      | '<' -> emit Langle
      | '>' -> emit Rangle
      | ':' -> emit Colon
      | ';' -> emit Semi
      | ',' -> emit Comma
      | '*' -> emit Star
      | c -> fail ~line:!line ~col:!col "unexpected character %C" c);
      advance ()
    end
  done;
  toks := { tok = Eof; line = !line; col = !col } :: !toks;
  List.rev !toks

type state = { mutable toks : lexed list }

let peek st = match st.toks with [] -> assert false | t :: _ -> t

let next st =
  let t = peek st in
  (match st.toks with [] -> () | _ :: rest -> st.toks <- rest);
  t

let expect st tok =
  let t = next st in
  if t.tok <> tok then
    fail ~line:t.line ~col:t.col "expected %s, found %s" (token_name tok)
      (token_name t.tok)

let keyword st kw =
  let t = next st in
  if t.tok <> Ident kw then
    fail ~line:t.line ~col:t.col "expected '%s', found %s" kw (token_name t.tok)

let ident st =
  let t = next st in
  match t.tok with
  | Ident s -> s
  | other -> fail ~line:t.line ~col:t.col "expected identifier, found %s" (token_name other)

(* --- per-language rules --- *)

type syntax = Corba | Mpl

(* Both type languages map onto {!Ty.t}. MPL spells them the C++ way:
   [void] is unit, [long]/[short] are int, [double] is float, [string]
   and [char *] are str, [bytes] is blob, and [sequence<T>]/[optional<T>]
   are list/opt. Only the CORBA syntax has records. *)
let rec parse_ty syntax st : Ty.t =
  let t = next st in
  let angled () =
    expect st Langle;
    let inner = parse_ty syntax st in
    expect st Rangle;
    inner
  in
  match (syntax, t.tok) with
  | Corba, Ident "unit" | Mpl, Ident "void" -> Ty.Tunit
  | _, Ident "bool" -> Ty.Tbool
  | _, Ident "int" | Mpl, Ident ("long" | "short") -> Ty.Tint
  | _, Ident "float" | Mpl, Ident "double" -> Ty.Tfloat
  | Corba, Ident "str" | Mpl, Ident "string" -> Ty.Tstr
  | Mpl, Ident "char" ->
      expect st Star;
      Ty.Tstr
  | _, Ident "blob" | Mpl, Ident "bytes" -> Ty.Tblob
  | _, Ident "loid" -> Ty.Tloid
  | _, Ident "binding" -> Ty.Tbinding
  | _, Ident "any" -> Ty.Tany
  | Corba, Ident "list" | Mpl, Ident "sequence" -> Ty.Tlist (angled ())
  | Corba, Ident "opt" | Mpl, Ident "optional" -> Ty.Topt (angled ())
  | Corba, Ident "record" ->
      expect st Lbrace;
      let fields = ref [] in
      let rec loop () =
        match (peek st).tok with
        | Rbrace -> ignore (next st)
        | _ ->
            let name = ident st in
            expect st Colon;
            let ty = parse_ty Corba st in
            fields := (name, ty) :: !fields;
            (match (peek st).tok with
            | Comma -> ignore (next st)
            | _ -> ());
            loop ()
      in
      loop ();
      Ty.Trecord (List.rev !fields)
  | Corba, Ident other -> fail ~line:t.line ~col:t.col "unknown type %S" other
  | Mpl, Ident other -> fail ~line:t.line ~col:t.col "unknown MPL type %S" other
  | _, other ->
      fail ~line:t.line ~col:t.col "expected a type, found %s" (token_name other)

(* Mentat's concurrency qualifiers: meaningful to its compiler, not to
   the interface. *)
let qualifiers = [ "regular"; "sequential"; "select"; "stateless"; "persistent" ]

let skip_qualifiers st =
  let rec loop () =
    match (peek st).tok with
    | Ident q when List.mem q qualifiers ->
        ignore (next st);
        loop ()
    | _ -> ()
  in
  loop ()

(* CORBA: [name: type]; MPL: [qualifier* type name]. *)
let parse_param syntax st =
  match syntax with
  | Corba ->
      let name = ident st in
      expect st Colon;
      (name, parse_ty Corba st)
  | Mpl ->
      skip_qualifiers st;
      let ty = parse_ty Mpl st in
      (ident st, ty)

let parse_params syntax st =
  expect st Lparen;
  match (peek st).tok with
  | Rparen ->
      ignore (next st);
      []
  | _ ->
      let rec loop acc =
        let acc = parse_param syntax st :: acc in
        let t = next st in
        match t.tok with
        | Comma -> loop acc
        | Rparen -> List.rev acc
        | other ->
            fail ~line:t.line ~col:t.col "expected ',' or ')', found %s"
              (token_name other)
      in
      loop []

(* CORBA: [name(params) (: type)?;]; MPL: [qualifier* type name(params);]. *)
let parse_method syntax st : Interface.signature =
  let meth, params, ret =
    match syntax with
    | Corba ->
        let meth = ident st in
        let params = parse_params Corba st in
        let ret =
          match (peek st).tok with
          | Colon ->
              ignore (next st);
              parse_ty Corba st
          | _ -> Ty.Tunit
        in
        (meth, params, ret)
    | Mpl ->
        skip_qualifiers st;
        let ret = parse_ty Mpl st in
        let meth = ident st in
        let params = parse_params Mpl st in
        (meth, params, ret)
  in
  expect st Semi;
  { Interface.meth; params; ret }

(* A declaration names its syntax: [interface] opens a CORBA one, and
   [mentat class], after any Mentat qualifiers, an MPL one. A qualifier
   commits the declaration to MPL. *)
let parse_decl st =
  let first = peek st in
  skip_qualifiers st;
  let t = next st in
  let qualified = t != first in
  let syntax =
    match t.tok with
    | Ident "interface" when not qualified -> Corba
    | Ident "mentat" ->
        keyword st "class";
        Mpl
    | other ->
        fail ~line:t.line ~col:t.col "expected %s, found %s"
          (if qualified then "'mentat'" else "'interface' or 'mentat'")
          (token_name other)
  in
  let iname = ident st in
  expect st Lbrace;
  let sigs = ref [] in
  let rec loop () =
    match (peek st).tok with
    | Rbrace -> ignore (next st)
    | _ ->
        sigs := parse_method syntax st :: !sigs;
        loop ()
  in
  loop ();
  (match (peek st).tok with Semi -> ignore (next st) | _ -> ());
  match Interface.make ~name:iname (List.rev !sigs) with
  | iface -> iface
  | exception Invalid_argument msg -> fail ~line:t.line ~col:t.col "%s" msg

let run f src =
  match f { toks = lex src } with
  | v -> Ok v
  | exception Parse_error e -> Error e

let interface src =
  run
    (fun st ->
      let iface = parse_decl st in
      expect st Eof;
      iface)
    src

let file src =
  run
    (fun st ->
      let rec loop acc =
        match (peek st).tok with
        | Eof -> List.rev acc
        | _ -> loop (parse_decl st :: acc)
      in
      loop [])
    src

let ty src =
  run
    (fun st ->
      let t = parse_ty Corba st in
      expect st Eof;
      t)
    src
