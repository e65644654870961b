module Loid = Legion_naming.Loid
module Value = Legion_wire.Value

type tier = Intra_host | Intra_site | Inter_site

type drop_reason =
  | Src_down
  | Dst_down
  | Partitioned
  | Random_loss
  | No_receiver
  | Corrupted

type kind =
  | Send of { src : int; dst : int; bytes : int; tier : tier }
  | Deliver of { src : int; dst : int }
  | Drop of { src : int; dst : int; reason : drop_reason }
  | Duplicate of { src : int; dst : int }
  | Reorder of { src : int; dst : int; extra : float }
  | Corrupt_inject of { src : int; dst : int; mutations : int }
  | Dedup_hit of { loid : Loid.t; id : int; meth : string }
  | Call of { id : int; src : Loid.t; dst : Loid.t; meth : string }
  | Reply of { id : int; ok : bool }
  | Timeout of { id : int }
  | Retry of { id : int; attempt : int }
  | Giveup of { id : int; attempts : int }
  | Cancel of { id : int }
  | Cache_hit of { owner : Loid.t; target : Loid.t }
  | Cache_miss of { owner : Loid.t; target : Loid.t }
  | Resolve of { owner : Loid.t; target : Loid.t; stale : bool }
  | Binding_install of { owner : Loid.t; target : Loid.t }
  | Rebind of { owner : Loid.t; target : Loid.t; attempt : int }
  | Activate of { loid : Loid.t }
  | Deactivate of { loid : Loid.t }
  | Migrate of { loid : Loid.t; dst : Loid.t }
  | Replica_fanout of { target : Loid.t; width : int }
  | Checkpoint of { loid : Loid.t }
  | Suspect of { host_obj : Loid.t; missed : int }
  | Confirm_dead of { host_obj : Loid.t; objects : int }
  | Reactivate of { loid : Loid.t }
  | Fence of { loid : Loid.t; epoch : int; current : int }
  | Admit of {
      loid : Loid.t;
      meth : string;
      queued : bool;
      tenant : string option;
    }
  | Shed of {
      loid : Loid.t;
      meth : string;
      queue : int;
      tenant : string option;
    }
  | Deny of { loid : Loid.t; meth : string; tenant : string }
  | Breaker_open of { host : int; failures : int }
  | Breaker_probe of { host : int }
  | Breaker_close of { host : int }
  | Stale_serve of { owner : Loid.t; target : Loid.t }
  | Replica_lost of { loid : Loid.t; host : int; remaining : int }
  | Replica_repair of { loid : Loid.t; host : int; epoch : int }
  | No_quorum of { loid : Loid.t; have : int; need : int }
  | Reconcile of { loid : Loid.t; divergent : int; updated : int }
  | Clone of { cls : Loid.t; clone : Loid.t }
  | Merge of { cls : Loid.t; clone : Loid.t }
  | Split of { magistrate : Loid.t; dst : Loid.t; objects : int }
  | Probe_fail of { agent : Loid.t; host_obj : Loid.t }
  | Prepare of { txn : string; participant : Loid.t }
  | Txn_commit of { txn : string; participants : int }
  | Txn_abort of { txn : string; reason : string }
  | Compensate of { txn : string; participant : Loid.t }
  | Resume of { txn : string; decision : string }

type t = { time : float; host : int option; site : int option; kind : kind }

(* Constructor position in declaration order. The one match over the
   constructors: [name] and the recorder's per-kind counters both go
   through it. *)
let index = function
  | Send _ -> 0
  | Deliver _ -> 1
  | Drop _ -> 2
  | Duplicate _ -> 3
  | Reorder _ -> 4
  | Corrupt_inject _ -> 5
  | Dedup_hit _ -> 6
  | Call _ -> 7
  | Reply _ -> 8
  | Timeout _ -> 9
  | Retry _ -> 10
  | Giveup _ -> 11
  | Cancel _ -> 12
  | Cache_hit _ -> 13
  | Cache_miss _ -> 14
  | Resolve _ -> 15
  | Binding_install _ -> 16
  | Rebind _ -> 17
  | Activate _ -> 18
  | Deactivate _ -> 19
  | Migrate _ -> 20
  | Replica_fanout _ -> 21
  | Checkpoint _ -> 22
  | Suspect _ -> 23
  | Confirm_dead _ -> 24
  | Reactivate _ -> 25
  | Fence _ -> 26
  | Admit _ -> 27
  | Shed _ -> 28
  | Deny _ -> 29
  | Breaker_open _ -> 30
  | Breaker_probe _ -> 31
  | Breaker_close _ -> 32
  | Stale_serve _ -> 33
  | Replica_lost _ -> 34
  | Replica_repair _ -> 35
  | No_quorum _ -> 36
  | Reconcile _ -> 37
  | Clone _ -> 38
  | Merge _ -> 39
  | Split _ -> 40
  | Probe_fail _ -> 41
  | Prepare _ -> 42
  | Txn_commit _ -> 43
  | Txn_abort _ -> 44
  | Compensate _ -> 45
  | Resume _ -> 46

let names =
  [|
    "Send"; "Deliver"; "Drop"; "Duplicate"; "Reorder"; "CorruptInject";
    "DedupHit"; "Call"; "Reply"; "Timeout"; "Retry"; "Giveup"; "Cancel";
    "CacheHit"; "CacheMiss"; "Resolve"; "BindingInstall"; "Rebind";
    "Activate"; "Deactivate"; "Migrate"; "ReplicaFanout"; "Checkpoint";
    "Suspect"; "ConfirmDead"; "Reactivate"; "Fence"; "Admit"; "Shed";
    "Deny"; "BreakerOpen"; "BreakerProbe"; "BreakerClose"; "StaleServe";
    "ReplicaLost"; "ReplicaRepair"; "NoQuorum"; "Reconcile"; "Clone";
    "Merge"; "Split"; "ProbeFail"; "Prepare"; "TxnCommit"; "TxnAbort";
    "Compensate"; "Resume";
  |]

let kinds = Array.length names
let name_of_index i = names.(i)
let name k = names.(index k)

let tier_name = function
  | Intra_host -> "host"
  | Intra_site -> "site"
  | Inter_site -> "wan"

let drop_reason_name = function
  | Src_down -> "src-down"
  | Dst_down -> "dst-down"
  | Partitioned -> "partitioned"
  | Random_loss -> "loss"
  | No_receiver -> "no-receiver"
  | Corrupted -> "corrupt"

let loid l = Value.Str (Loid.to_string l)

let fields = function
  | Send { src; dst; bytes; tier } ->
      [
        ("src", Value.Int src);
        ("dst", Value.Int dst);
        ("bytes", Value.Int bytes);
        ("tier", Value.Str (tier_name tier));
      ]
  | Deliver { src; dst } -> [ ("src", Value.Int src); ("dst", Value.Int dst) ]
  | Drop { src; dst; reason } ->
      [
        ("src", Value.Int src);
        ("dst", Value.Int dst);
        ("reason", Value.Str (drop_reason_name reason));
      ]
  | Duplicate { src; dst } -> [ ("src", Value.Int src); ("dst", Value.Int dst) ]
  | Reorder { src; dst; extra } ->
      [
        ("src", Value.Int src);
        ("dst", Value.Int dst);
        ("extra", Value.Float extra);
      ]
  | Corrupt_inject { src; dst; mutations } ->
      [
        ("src", Value.Int src);
        ("dst", Value.Int dst);
        ("mutations", Value.Int mutations);
      ]
  | Dedup_hit { loid = l; id; meth } ->
      [ ("loid", loid l); ("id", Value.Int id); ("meth", Value.Str meth) ]
  | Call { id; src; dst; meth } ->
      [
        ("id", Value.Int id);
        ("src", loid src);
        ("dst", loid dst);
        ("meth", Value.Str meth);
      ]
  | Reply { id; ok } -> [ ("id", Value.Int id); ("ok", Value.Bool ok) ]
  | Timeout { id } -> [ ("id", Value.Int id) ]
  | Retry { id; attempt } ->
      [ ("id", Value.Int id); ("attempt", Value.Int attempt) ]
  | Giveup { id; attempts } ->
      [ ("id", Value.Int id); ("attempts", Value.Int attempts) ]
  | Cancel { id } -> [ ("id", Value.Int id) ]
  | Cache_hit { owner; target } | Cache_miss { owner; target } ->
      [ ("owner", loid owner); ("target", loid target) ]
  | Resolve { owner; target; stale } ->
      [ ("owner", loid owner); ("target", loid target); ("stale", Value.Bool stale) ]
  | Binding_install { owner; target } ->
      [ ("owner", loid owner); ("target", loid target) ]
  | Rebind { owner; target; attempt } ->
      [
        ("owner", loid owner);
        ("target", loid target);
        ("attempt", Value.Int attempt);
      ]
  | Activate { loid = l } | Deactivate { loid = l } -> [ ("loid", loid l) ]
  | Migrate { loid = l; dst } -> [ ("loid", loid l); ("dst", loid dst) ]
  | Replica_fanout { target; width } ->
      [ ("target", loid target); ("width", Value.Int width) ]
  | Checkpoint { loid = l } | Reactivate { loid = l } -> [ ("loid", loid l) ]
  | Suspect { host_obj; missed } ->
      [ ("host_obj", loid host_obj); ("missed", Value.Int missed) ]
  | Confirm_dead { host_obj; objects } ->
      [ ("host_obj", loid host_obj); ("objects", Value.Int objects) ]
  | Fence { loid = l; epoch; current } ->
      [
        ("loid", loid l);
        ("epoch", Value.Int epoch);
        ("current", Value.Int current);
      ]
  (* [tenant] serialises only when tagged, so pre-tenancy streams stay
     byte-identical. *)
  | Admit { loid = l; meth; queued; tenant } ->
      [ ("loid", loid l); ("meth", Value.Str meth); ("queued", Value.Bool queued) ]
      @ (match tenant with
        | Some tn -> [ ("tenant", Value.Str tn) ]
        | None -> [])
  | Shed { loid = l; meth; queue; tenant } ->
      [ ("loid", loid l); ("meth", Value.Str meth); ("queue", Value.Int queue) ]
      @ (match tenant with
        | Some tn -> [ ("tenant", Value.Str tn) ]
        | None -> [])
  | Deny { loid = l; meth; tenant } ->
      [ ("loid", loid l); ("meth", Value.Str meth); ("tenant", Value.Str tenant) ]
  | Breaker_open { host; failures } ->
      [ ("dst", Value.Int host); ("failures", Value.Int failures) ]
  | Breaker_probe { host } -> [ ("dst", Value.Int host) ]
  | Breaker_close { host } -> [ ("dst", Value.Int host) ]
  | Stale_serve { owner; target } ->
      [ ("owner", loid owner); ("target", loid target) ]
  | Replica_lost { loid = l; host; remaining } ->
      [
        ("loid", loid l);
        ("host", Value.Int host);
        ("remaining", Value.Int remaining);
      ]
  | Replica_repair { loid = l; host; epoch } ->
      [ ("loid", loid l); ("host", Value.Int host); ("epoch", Value.Int epoch) ]
  | No_quorum { loid = l; have; need } ->
      [ ("loid", loid l); ("have", Value.Int have); ("need", Value.Int need) ]
  | Reconcile { loid = l; divergent; updated } ->
      [
        ("loid", loid l);
        ("divergent", Value.Int divergent);
        ("updated", Value.Int updated);
      ]
  | Clone { cls; clone } | Merge { cls; clone } ->
      [ ("cls", loid cls); ("clone", loid clone) ]
  | Split { magistrate; dst; objects } ->
      [
        ("magistrate", loid magistrate);
        ("dst", loid dst);
        ("objects", Value.Int objects);
      ]
  | Probe_fail { agent; host_obj } ->
      [ ("agent", loid agent); ("host_obj", loid host_obj) ]
  | Prepare { txn; participant } | Compensate { txn; participant } ->
      [ ("txn", Value.Str txn); ("participant", loid participant) ]
  | Txn_commit { txn; participants } ->
      [ ("txn", Value.Str txn); ("participants", Value.Int participants) ]
  | Txn_abort { txn; reason } ->
      [ ("txn", Value.Str txn); ("reason", Value.Str reason) ]
  | Resume { txn; decision } ->
      [ ("txn", Value.Str txn); ("decision", Value.Str decision) ]

let to_value e =
  Value.Record
    (("t", Value.Float e.time)
    :: ((match e.host with Some h -> [ ("host", Value.Int h) ] | None -> [])
       @ (match e.site with Some s -> [ ("site", Value.Int s) ] | None -> [])
       @ (("ev", Value.Str (name e.kind)) :: fields e.kind)))

(* Minimal JSON over the value shapes [to_value] produces. Floats never
   carry inf/nan here, so %.9g is always a valid JSON number token
   (possibly in exponent form). *)
let rec json_of_value = function
  | Value.Unit -> "null"
  | Value.Bool b -> if b then "true" else "false"
  | Value.Int i -> string_of_int i
  | Value.I64 i -> Int64.to_string i
  | Value.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.9g" f
  | Value.Str s | Value.Blob s -> json_quote s
  | Value.List vs ->
      "[" ^ String.concat "," (List.map json_of_value vs) ^ "]"
  | Value.Record fs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> json_quote k ^ ":" ^ json_of_value v) fs)
      ^ "}"
  | Value.Native n -> json_of_value (n.record ())

and json_quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json e = json_of_value (to_value e)

let atom = function
  | Value.Int i -> string_of_int i
  | Value.Bool b -> string_of_bool b
  | Value.Float f -> Printf.sprintf "%.6g" f
  | Value.Str s -> s
  | v -> Value.to_string v

let pp ppf e =
  Format.fprintf ppf "[%10.6f]%s %-14s%s" e.time
    (match e.host with Some h -> Printf.sprintf " h%d" h | None -> "")
    (name e.kind)
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf " %s=%s" k (atom v))
          (fields e.kind)))
