module Value = Legion_wire.Value
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Engine = Legion_sim.Engine

let counter_unit = "legion.std.counter"
let serial_counter_unit = "legion.std.serial_counter"
let file_unit = "legion.std.file"
let kv_unit = "legion.std.kv"
let queue_unit = "legion.std.queue"
let barrier_unit = "legion.std.barrier"

(* --- Counter --- *)

(* [serve k reply] answers every method: at once for the plain counter,
   behind the serial server's queue for the bottleneck variant. *)
let counter_part ~serve unit_name : Impl.part =
  let n = ref 0 in
  let increment _ctx args _env k =
    match args with
    | [ Value.Int d ] ->
        n := !n + d;
        serve k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Increment expects one int"
  in
  let get _ctx args _env k =
    match args with
    | [] -> serve k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Get takes no arguments"
  in
  let reset _ctx args _env k =
    match args with
    | [] ->
        n := 0;
        serve k Impl.ok_unit
    | _ -> Impl.bad_args k "Reset takes no arguments"
  in
  Impl.part
    ~methods:[ ("Increment", increment); ("Get", get); ("Reset", reset) ]
    ~save:(fun () -> Value.Int !n)
    ~restore:(fun v ->
      match v with
      | Value.Int i ->
          n := i;
          Ok ()
      | _ -> Error "counter state must be an int")
    unit_name

let counter_factory (_ctx : Runtime.ctx) =
  counter_part ~serve:(fun k reply -> k reply) counter_unit

(* One request at a time, [service] seconds each, after every earlier
   request has drained: replies are scheduled at completion, so queue
   depth shows up as caller latency. *)
let serial_counter_factory ~service (ctx : Runtime.ctx) =
  let eng = Runtime.sim ctx.Runtime.rt in
  let busy_until = ref 0.0 in
  let serve k reply =
    let finish = Float.max (Engine.now eng) !busy_until +. service in
    busy_until := finish;
    ignore (Engine.schedule_at eng ~time:finish (fun () -> k reply))
  in
  counter_part ~serve serial_counter_unit

let counter_idl = "interface Counter { Increment(d: int): int; Get(): int; }"
let register_counter () = Impl.register counter_unit counter_factory

let register_serial_counter ~service =
  Impl.register serial_counter_unit (serial_counter_factory ~service)

(* --- Worker --- *)

let worker_unit = "legion.std.worker"
let worker_idl = "interface Worker { Work(d: float): int; }"

(* [Work(d)] replies [d] virtual seconds later, holding its admission
   slot meanwhile, so demand shows up in admission load and in the
   caller's latency. *)
let worker_factory (_ctx : Runtime.ctx) : Impl.part =
  let served = ref 0 in
  let work wctx args _env k =
    match args with
    | [ Value.Float d ] when d >= 0.0 ->
        incr served;
        let eng = Runtime.sim wctx.Runtime.rt in
        let n = !served in
        ignore
          (Engine.schedule_at eng ~time:(Engine.now eng +. d) (fun () ->
               k (Ok (Value.Int n))))
    | _ -> Impl.bad_args k "Work expects one non-negative float"
  in
  Impl.part
    ~methods:[ ("Work", work) ]
    ~save:(fun () -> Value.Int !served)
    ~restore:(fun v ->
      match v with
      | Value.Int n ->
          served := n;
          Ok ()
      | _ -> Error "work state must be an int")
    worker_unit

let register_worker () = Impl.register worker_unit worker_factory

(* --- File --- *)

let file_factory (_ctx : Runtime.ctx) : Impl.part =
  let contents = ref "" and version = ref 0 in
  let read _ctx args _env k =
    match args with
    | [] ->
        k
          (Ok
             (Value.Record
                [ ("data", Value.Str !contents); ("version", Value.Int !version) ]))
    | _ -> Impl.bad_args k "Read takes no arguments"
  in
  let write _ctx args _env k =
    match args with
    | [ Value.Str s ] ->
        contents := s;
        incr version;
        k (Ok (Value.Int !version))
    | _ -> Impl.bad_args k "Write expects one string"
  in
  let append _ctx args _env k =
    match args with
    | [ Value.Str s ] ->
        contents := !contents ^ s;
        incr version;
        k (Ok (Value.Int !version))
    | _ -> Impl.bad_args k "Append expects one string"
  in
  let size _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int (String.length !contents)))
    | _ -> Impl.bad_args k "Size takes no arguments"
  in
  Impl.part
    ~methods:
      [ ("Read", read); ("Write", write); ("Append", append); ("Size", size) ]
    ~save:(fun () ->
      Value.Record [ ("c", Value.Str !contents); ("v", Value.Int !version) ])
    ~restore:(fun v ->
      match (Value.field v "c", Value.field v "v") with
      | Ok (Value.Str c), Ok (Value.Int ver) ->
          contents := c;
          version := ver;
          Ok ()
      | _ -> Error "file state malformed")
    file_unit

let file_idl =
  "interface LegionFile { Read(): any; Write(s: str): int; Append(s: str): int; \
   Size(): int; }"

(* --- Key-value store --- *)

let kv_factory (_ctx : Runtime.ctx) : Impl.part =
  let table : (string, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let put _ctx args _env k =
    match args with
    | [ Value.Str key; v ] ->
        Hashtbl.replace table key v;
        k Impl.ok_unit
    | _ -> Impl.bad_args k "Put expects (key: str, v)"
  in
  let get_key _ctx args _env k =
    match args with
    | [ Value.Str key ] -> (
        match Hashtbl.find_opt table key with
        | Some v -> k (Ok v)
        | None -> k (Error (Err.Not_bound (Printf.sprintf "no key %S" key))))
    | _ -> Impl.bad_args k "GetKey expects one string"
  in
  let delete_key _ctx args _env k =
    match args with
    | [ Value.Str key ] ->
        let present = Hashtbl.mem table key in
        Hashtbl.remove table key;
        k (Ok (Value.Bool present))
    | _ -> Impl.bad_args k "DeleteKey expects one string"
  in
  let keys _ctx args _env k =
    match args with
    | [] ->
        let ks = Hashtbl.fold (fun key _ acc -> key :: acc) table [] in
        k
          (Ok
             (Value.List
                (List.map (fun s -> Value.Str s) (List.sort String.compare ks))))
    | _ -> Impl.bad_args k "Keys takes no arguments"
  in
  let count _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int (Hashtbl.length table)))
    | _ -> Impl.bad_args k "Count takes no arguments"
  in
  let save () =
    Value.Record
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Hashtbl.fold (fun key v acc -> (key, v) :: acc) table []))
  in
  let restore v =
    match v with
    | Value.Record fields ->
        Hashtbl.reset table;
        List.iter (fun (key, v) -> Hashtbl.replace table key v) fields;
        Ok ()
    | _ -> Error "kv state must be a record"
  in
  Impl.part
    ~methods:
      [
        ("Put", put);
        ("GetKey", get_key);
        ("DeleteKey", delete_key);
        ("Keys", keys);
        ("Count", count);
      ]
    ~save ~restore kv_unit

let kv_idl =
  "interface LegionKv { Put(key: str, v: any); GetKey(key: str): any; \
   DeleteKey(key: str): bool; Keys(): list<str>; Count(): int; }"

(* --- Queue --- *)

let queue_factory (_ctx : Runtime.ctx) : Impl.part =
  let q : Value.t Queue.t = Queue.create () in
  let push _ctx args _env k =
    match args with
    | [ v ] ->
        Queue.push v q;
        k (Ok (Value.Int (Queue.length q)))
    | _ -> Impl.bad_args k "Push expects one value"
  in
  let pop _ctx args _env k =
    match args with
    | [] -> (
        match Queue.take_opt q with
        | Some v -> k (Ok v)
        | None -> k (Error (Err.Not_bound "queue is empty")))
    | _ -> Impl.bad_args k "Pop takes no arguments"
  in
  let peek _ctx args _env k =
    match args with
    | [] -> (
        match Queue.peek_opt q with
        | Some v -> k (Ok v)
        | None -> k (Error (Err.Not_bound "queue is empty")))
    | _ -> Impl.bad_args k "Peek takes no arguments"
  in
  let length _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int (Queue.length q)))
    | _ -> Impl.bad_args k "Length takes no arguments"
  in
  Impl.part
    ~methods:
      [ ("Push", push); ("Pop", pop); ("Peek", peek); ("Length", length) ]
    ~save:(fun () -> Value.List (List.of_seq (Queue.to_seq q)))
    ~restore:(fun v ->
      match v with
      | Value.List vs ->
          Queue.clear q;
          List.iter (fun x -> Queue.push x q) vs;
          Ok ()
      | _ -> Error "queue state must be a list")
    queue_unit

let queue_idl =
  "interface LegionQueue { Push(v: any): int; Pop(): any; Peek(): any; \
   Length(): int; }"

(* --- Barrier --- *)

let barrier_factory (_ctx : Runtime.ctx) : Impl.part =
  let parties = ref 1 in
  (* Continuations of parties already arrived: runtime state by design —
     see the interface documentation. *)
  let waiting : (Runtime.reply -> unit) list ref = ref [] in
  let configure _ctx args _env k =
    match args with
    | [ Value.Int n ] ->
        if n <= 0 then Impl.bad_args k "Configure expects a positive int"
        else begin
          (* Reconfiguring releases current waiters with an error: the
             phase they were waiting for no longer exists. *)
          List.iter
            (fun waiter -> waiter (Error (Err.Refused "barrier reconfigured")))
            !waiting;
          waiting := [];
          parties := n;
          k Impl.ok_unit
        end
    | _ -> Impl.bad_args k "Configure expects one int"
  in
  let arrive _ctx args _env k =
    match args with
    | [] ->
        waiting := k :: !waiting;
        if List.length !waiting >= !parties then begin
          let release = !waiting in
          let n = List.length release in
          waiting := [];
          List.iter (fun waiter -> waiter (Ok (Value.Int n))) release
        end
    | _ -> Impl.bad_args k "Arrive takes no arguments"
  in
  let waiting_meth _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int (List.length !waiting)))
    | _ -> Impl.bad_args k "Waiting takes no arguments"
  in
  Impl.part
    ~methods:
      [ ("Configure", configure); ("Arrive", arrive); ("Waiting", waiting_meth) ]
    ~save:(fun () -> Value.Int !parties)
    ~restore:(fun v ->
      match v with
      | Value.Int n when n > 0 ->
          parties := n;
          Ok ()
      | _ -> Error "barrier state must be a positive int")
    barrier_unit

let barrier_idl =
  "interface LegionBarrier { Configure(parties: int); Arrive(): int; \
   Waiting(): int; }"

(* --- Lock --- *)

let lock_unit = "legion.std.lock"

let lock_factory (_ctx : Runtime.ctx) : Impl.part =
  (* Holder and queue are runtime state by design (see interface). *)
  let holder : Legion_naming.Loid.t option ref = ref None in
  let waiting : (Legion_naming.Loid.t * (Runtime.reply -> unit)) Queue.t =
    Queue.create ()
  in
  let grant who k =
    holder := Some who;
    k Impl.ok_unit
  in
  let acquire _ctx args env k =
    match args with
    | [] -> (
        let who = env.Legion_sec.Env.calling in
        match !holder with
        | None -> grant who k
        | Some _ -> Queue.push (who, k) waiting)
    | _ -> Impl.bad_args k "Acquire takes no arguments"
  in
  let release _ctx args env k =
    match args with
    | [] -> (
        let who = env.Legion_sec.Env.calling in
        match !holder with
        | Some h when Legion_naming.Loid.equal h who ->
            (match Queue.take_opt waiting with
            | Some (next, waiter) -> grant next waiter
            | None -> holder := None);
            k Impl.ok_unit
        | Some _ -> k (Error (Err.Refused "lock held by another agent"))
        | None -> k (Error (Err.Refused "lock is not held")))
    | _ -> Impl.bad_args k "Release takes no arguments"
  in
  let holder_meth _ctx args _env k =
    match args with
    | [] -> (
        match !holder with
        | Some h -> k (Ok (Legion_naming.Loid.to_value h))
        | None -> k (Error (Err.Not_bound "lock is free")))
    | _ -> Impl.bad_args k "Holder takes no arguments"
  in
  let queue_length _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int (Queue.length waiting)))
    | _ -> Impl.bad_args k "QueueLength takes no arguments"
  in
  Impl.part
    ~methods:
      [
        ("Acquire", acquire);
        ("Release", release);
        ("Holder", holder_meth);
        ("QueueLength", queue_length);
      ]
    lock_unit

let lock_idl =
  "interface LegionLock { Acquire(); Release(); Holder(): loid; \
   QueueLength(): int; }"

(* --- Tuple space --- *)

let tspace_unit = "legion.std.tspace"

(* Wildcards are the string "_"; everything else matches by equality. *)
let tuple_matches ~pattern tuple =
  List.length pattern = List.length tuple
  && List.for_all2
       (fun p t -> match p with Value.Str "_" -> true | _ -> Value.equal p t)
       pattern tuple

let tspace_factory (_ctx : Runtime.ctx) : Impl.part =
  let tuples : Value.t list list ref = ref [] in
  (* (pattern, destructive?, continuation), FIFO. *)
  let pending : (Value.t list * bool * (Runtime.reply -> unit)) Queue.t =
    Queue.create ()
  in
  let take_match pattern =
    let rec split acc = function
      | [] -> None
      | t :: rest ->
          if tuple_matches ~pattern t then Some (t, List.rev_append acc rest)
          else split (t :: acc) rest
    in
    split [] !tuples
  in
  (* On every deposit, retry the pending requests in arrival order. *)
  let service_pending () =
    let still = Queue.create () in
    Queue.iter
      (fun (pattern, destructive, k) ->
        match take_match pattern with
        | Some (t, rest) ->
            if destructive then tuples := rest;
            k (Ok (Value.List t))
        | None -> Queue.push (pattern, destructive, k) still)
      pending;
    Queue.clear pending;
    Queue.transfer still pending
  in
  let out _ctx args _env k =
    match args with
    | [ Value.List t ] ->
        tuples := !tuples @ [ t ];
        service_pending ();
        k Impl.ok_unit
    | _ -> Impl.bad_args k "Out expects one tuple (list)"
  in
  let blocking destructive name _ctx args _env k =
    match args with
    | [ Value.List pattern ] -> (
        match take_match pattern with
        | Some (t, rest) ->
            if destructive then tuples := rest;
            k (Ok (Value.List t))
        | None -> Queue.push (pattern, destructive, k) pending)
    | _ -> Impl.bad_args k (name ^ " expects one pattern (list)")
  in
  let non_blocking destructive name _ctx args _env k =
    match args with
    | [ Value.List pattern ] -> (
        match take_match pattern with
        | Some (t, rest) ->
            if destructive then tuples := rest;
            k (Ok (Value.List t))
        | None -> k (Error (Err.Not_bound "no matching tuple")))
    | _ -> Impl.bad_args k (name ^ " expects one pattern (list)")
  in
  let size _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int (List.length !tuples)))
    | _ -> Impl.bad_args k "Size takes no arguments"
  in
  (* Shutdown/reset: drop every tuple and release every parked waiter
     with a refusal, so masters can dismiss idle workers cleanly. *)
  let flush _ctx args _env k =
    match args with
    | [] ->
        let dropped = List.length !tuples in
        tuples := [];
        Queue.iter
          (fun (_, _, waiter) -> waiter (Error (Err.Refused "tuple space flushed")))
          pending;
        Queue.clear pending;
        k (Ok (Value.Int dropped))
    | _ -> Impl.bad_args k "Flush takes no arguments"
  in
  Impl.part
    ~methods:
      [
        ("Out", out);
        ("In", blocking true "In");
        ("Rd", blocking false "Rd");
        ("TryIn", non_blocking true "TryIn");
        ("TryRd", non_blocking false "TryRd");
        ("Size", size);
        ("Flush", flush);
      ]
    ~save:(fun () -> Value.List (List.map (fun t -> Value.List t) !tuples))
    ~restore:(fun v ->
      match v with
      | Value.List ts ->
          tuples :=
            List.filter_map (function Value.List t -> Some t | _ -> None) ts;
          Ok ()
      | _ -> Error "tuple space state must be a list")
    tspace_unit

let tspace_idl =
  "interface LegionTupleSpace { Out(t: list<any>); In(p: list<any>): list<any>; \
   Rd(p: list<any>): list<any>; TryIn(p: list<any>): list<any>; \
   TryRd(p: list<any>): list<any>; Size(): int; Flush(): int; }"

let register () =
  register_counter ();
  Impl.register file_unit file_factory;
  Impl.register kv_unit kv_factory;
  Impl.register queue_unit queue_factory;
  Impl.register barrier_unit barrier_factory;
  Impl.register lock_unit lock_factory;
  Impl.register tspace_unit tspace_factory
