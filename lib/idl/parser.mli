(** Parser for both of the paper's interface languages.

    The paper (§2, footnote) commits Legion to "at least two different
    IDLs … the CORBA IDL Interface Definition Language, and the Mentat
    Programming Language (MPL)". One front end reads both, and each
    declaration names its own syntax: [interface] opens a
    CORBA-flavoured declaration, and [mentat class], after any Mentat
    qualifiers, an MPL one. A file may mix them. Both produce the same
    {!Interface.t}.

    CORBA-flavoured grammar:
    {v
    interface  ::= "interface" IDENT "{" method* "}" ";"?
    method     ::= IDENT "(" params? ")" (":" type)? ";"
    params     ::= param ("," param)*
    param      ::= IDENT ":" type
    type       ::= "unit" | "bool" | "int" | "float" | "str" | "blob"
                 | "loid" | "binding" | "any"
                 | "list" "<" type ">" | "opt" "<" type ">"
                 | "record" "{" (IDENT ":" type ",")* "}"
    v}
    A method without a result type returns [unit]. Parsing a printed
    {!Interface.pp} round-trips.

    MPL grammar (C++-flavoured; MPL has no record type):
    {v
    class      ::= qual* "mentat" "class" IDENT "{" method* "}" ";"?
    method     ::= qual* type IDENT "(" params? ")" ";"
    params     ::= param ("," param)*
    param      ::= qual* type IDENT
    qual       ::= "regular" | "sequential" | "select" | "stateless"
                 | "persistent"
    type       ::= "void" | "bool" | "int" | "long" | "short" | "float"
                 | "double" | "string" | "char" "*" | "blob" | "bytes"
                 | "loid" | "binding" | "any"
                 | "sequence" "<" type ">" | "optional" "<" type ">"
    v}
    [void] is unit, [long]/[short] are int, [double] is float, [string]
    and [char *] are str, [bytes] is blob, and [sequence]/[optional] are
    list/opt. The qualifiers are Mentat's concurrency annotations: they
    direct Mentat's compiler, not the interface, and are discarded.

    Both syntaxes take [// to end of line] and [/* … */] comments. A
    declaration that opens with neither keyword is an error at its
    first token. *)

type error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

val interface : string -> (Interface.t, error) result
(** Parse exactly one declaration, in either syntax. *)

val file : string -> (Interface.t list, error) result
(** Parse a sequence of declarations, each in either syntax. *)

val ty : string -> (Ty.t, error) result
(** Parse a single CORBA-flavoured type expression (for tests and
    tools). *)
