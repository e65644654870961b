module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Env = Legion_sec.Env
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Opr = Legion_core.Opr
module C = Legion_core.Convert

let unit_name = "legion.host"

(* A running process and the OPR that activated it, with its states
   dropped: at deactivation SaveState supplies fresh ones. *)
type resident = { proc : Runtime.proc; opr : Opr.t }

let loid_of r = Runtime.proc_loid r.proc

type state = {
  mutable capacity : int option;
  mutable memory : int;
  residents : resident Loid.Lru.t;
      (* Newest first: the order ListProcesses, IdleProcesses and the
         zombie sweep walk. Residents are only [peek]ed, and a LOID is
         added once (Activate answers for one already running), so the
         order is insertion order. *)
  mutable swept_at : int;  (* [Runtime.host_changes] at the last sweep *)
  mutable activations : int;
  mutable exceptions : int;  (* activation failures reported *)
}

let state_value ?capacity () =
  Value.Record [ ("cap", C.vopt Value.of_int capacity); ("mem", Value.Int 0) ]

let factory (ctx : Runtime.ctx) : Impl.part =
  let rt = ctx.Runtime.rt in
  let self = Runtime.proc_loid ctx.Runtime.self in
  let net_host = Runtime.proc_host ctx.Runtime.self in
  let st =
    {
      capacity = None;
      memory = 0;
      residents = Loid.Lru.create ~key:loid_of ();
      swept_at = -1;
      activations = 0;
      exceptions = 0;
    }
  in
  let env = Env.of_self self in

  (* Every method that reads the resident set sweeps it first, but the
     sweep can only find something when the runtime has reported a
     change on this host since the last one; otherwise it is skipped. *)
  let sweep () =
    if Runtime.host_changes rt net_host <> st.swept_at then begin
      (* A placement from a superseded incarnation is a zombie, not a
         resident: delivery fences it, so it can never answer. Counting
         it as "already running here" would make Activate hand out its
         address forever (a rebind livelock after a partition-era epoch
         bump). Reap it on sight; the caller then re-activates from the
         OPR under the current epoch. The dead and the zombies are
         dropped newest first, so the zombie kills keep that order. *)
      let gone =
        Loid.Lru.fold
          (fun r acc ->
            if
              Runtime.is_live r.proc
              && Runtime.proc_epoch r.proc >= Runtime.current_epoch rt (loid_of r)
            then acc
            else r :: acc)
          st.residents []
      in
      List.iter
        (fun r ->
          Runtime.kill rt r.proc;
          Loid.Lru.remove st.residents (loid_of r))
        gone;
      (* Read after the sweep: its own kills moved the count. *)
      st.swept_at <- Runtime.host_changes rt net_host
    end
  in
  let find_process loid =
    sweep ();
    Loid.Lru.peek st.residents loid
  in
  let resident_count () =
    sweep ();
    Loid.Lru.length st.residents
  in
  (* Our own kill of a resident is the only change it makes to the
     table, and this removes it; so if no other change was pending, the
     sweep mark moves past it rather than re-sweeping every resident. *)
  let stop r =
    let pending = Runtime.host_changes rt net_host <> st.swept_at in
    Runtime.kill rt r.proc;
    Loid.Lru.remove st.residents (loid_of r);
    if not pending then st.swept_at <- Runtime.host_changes rt net_host
  in
  let full () =
    match st.capacity with None -> false | Some c -> resident_count () >= c
  in

  let activate _ctx args _env k =
    let reply_addr proc =
      k (Ok (Value.Record [ ("addr", Address.to_value (Runtime.address_of proc)) ]))
    in
    match args with
    | [ loid_v; Value.Blob blob ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid -> (
            if full () then k (Error (Err.Refused "host at capacity"))
            else
              match find_process loid with
              | Some p ->
                  (* Already running here: answer with the existing
                     address rather than double-activating. *)
                  reply_addr p.proc
              | None -> (
                  match Opr.of_blob blob with
                  | Error msg -> Impl.bad_args k ("bad OPR: " ^ msg)
                  | Ok opr -> (
                      match Impl.activate rt ~host:net_host ~loid opr with
                      | Error msg ->
                          st.exceptions <- st.exceptions + 1;
                          k (Error (Err.Internal ("activation failed: " ^ msg)))
                      | Ok proc ->
                          st.activations <- st.activations + 1;
                          Loid.Lru.add st.residents
                            { proc; opr = { opr with states = [] } };
                          reply_addr proc))))
    | _ -> Impl.bad_args k "Activate expects (loid, opr: blob)"
  in

  let deactivate _ctx args _env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid -> (
            match find_process loid with
            | None -> k (Error (Err.Not_bound "no such process on this host"))
            | Some p ->
                (* Ask the object to save its state (the mechanism of
                   §3.1.1), then stop the process and hand back the OPR. *)
                Runtime.invoke_address ctx
                  ~address:(Runtime.address_of p.proc)
                  ~dst:loid ~meth:"SaveState" ~args:[] ~env
                  (fun r ->
                    match r with
                    | Error e -> k (Error e)
                    | Ok (Value.Record states) ->
                        stop p;
                        k (Ok (Value.Blob (Opr.to_blob { p.opr with states })))
                    | Ok _ -> k (Error (Err.Internal "SaveState returned non-record")))))
    | _ -> Impl.bad_args k "Deactivate expects one loid"
  in

  let kill_meth _ctx args _env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid ->
            Option.iter stop (find_process loid);
            k Impl.ok_unit)
    | _ -> Impl.bad_args k "Kill expects one loid"
  in

  let set_cpu_load _ctx args _env k =
    match args with
    | [ Value.Int n ] ->
        st.capacity <- (if n <= 0 then None else Some n);
        k Impl.ok_unit
    | _ -> Impl.bad_args k "SetCPUload expects one int"
  in

  let set_memory _ctx args _env k =
    match args with
    | [ Value.Int n ] ->
        st.memory <- n;
        k Impl.ok_unit
    | _ -> Impl.bad_args k "SetMemoryUsage expects one int"
  in

  let get_state _ctx args _env k =
    match args with
    | [] ->
        k
          (Ok
             (Value.Record
                [
                  ("load", Value.Int (resident_count ()));
                  ("cap", C.vopt Value.of_int st.capacity);
                  ("mem", Value.Int st.memory);
                  ("activations", Value.Int st.activations);
                  ("exceptions", Value.Int st.exceptions);
                ]))
    | _ -> Impl.bad_args k "GetState takes no arguments"
  in

  let list_processes _ctx args _env k =
    match args with
    | [] ->
        sweep ();
        k (Ok (C.vloids (Loid.Lru.fold (fun r acc -> loid_of r :: acc) st.residents [])))
    | _ -> Impl.bad_args k "ListProcesses takes no arguments"
  in

  let idle_processes _ctx args _env k =
    match args with
    | [ Value.Float threshold ] ->
        let now = Runtime.now rt in
        sweep ();
        let idle =
          Loid.Lru.fold
            (fun r acc ->
              if now -. Runtime.last_delivery r.proc >= threshold then
                loid_of r :: acc
              else acc)
            st.residents []
        in
        k (Ok (C.vloids idle))
    | _ -> Impl.bad_args k "IdleProcesses expects one float"
  in

  let is_alive _ctx args _env k =
    match args with
    | [ loid_v ] -> (
        match C.loid_arg loid_v with
        | Error msg -> Impl.bad_args k msg
        | Ok loid -> k (Ok (Value.Bool (Option.is_some (find_process loid)))))
    | _ -> Impl.bad_args k "IsAlive expects one loid"
  in

  let reap _ctx args _env k =
    match args with
    | [] ->
        let before = Loid.Lru.length st.residents in
        let after = resident_count () in
        k (Ok (Value.Int (before - after)))
    | _ -> Impl.bad_args k "Reap takes no arguments"
  in

  let save () =
    Value.Record
      [ ("cap", C.vopt Value.of_int st.capacity); ("mem", Value.Int st.memory) ]
  in
  let restore v =
    let ( let* ) r f = Result.bind r f in
    let* cap = C.opt_int_field v "cap" in
    let* mem =
      match C.int_field v "mem" with Ok m -> Ok m | Error _ -> Ok 0
    in
    st.capacity <- cap;
    st.memory <- mem;
    Ok ()
  in
  Impl.part
    ~methods:
      [
        ("Activate", activate);
        ("Deactivate", deactivate);
        ("Kill", kill_meth);
        ("SetCPUload", set_cpu_load);
        ("SetMemoryUsage", set_memory);
        ("GetState", get_state);
        ("IsAlive", is_alive);
        ("IdleProcesses", idle_processes);
        ("ListProcesses", list_processes);
        ("Reap", reap);
      ]
    ~save ~restore unit_name

let register () = Impl.register unit_name factory
