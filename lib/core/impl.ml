module Value = Legion_wire.Value
module Env = Legion_sec.Env
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err

type meth =
  Runtime.ctx -> Value.t list -> Env.t -> (Runtime.reply -> unit) -> unit

type part = {
  part_name : string;
  find : string -> meth option;
  method_names : string list;
  save : unit -> Value.t;
  restore : Value.t -> (unit, string) result;
  guard :
    (meth:string -> args:Value.t list -> env:Env.t -> Policy.decision) option;
}

let part ?(methods = []) ?(save = fun () -> Value.Unit)
    ?(restore = fun _ -> Ok ()) ?guard part_name =
  {
    part_name;
    find = (fun m -> List.assoc_opt m methods);
    method_names = List.map fst methods;
    save;
    restore;
    guard;
  }

type factory = Runtime.ctx -> part

let registry : (string, factory) Hashtbl.t = Hashtbl.create 32

let register name factory = Hashtbl.replace registry name factory
let find_factory name = Hashtbl.find_opt registry name

let registered_units () =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

(* Resume hooks: unit name -> method the recovery path should invoke on
   a freshly reactivated instance composed from that unit. Registered
   alongside the factory (Legion_txn.register wires its coordinator's
   TxnResume here) so the class recovery path needs no compile-time
   dependency on the unit's library. *)
let resume_hooks : (string, string) Hashtbl.t = Hashtbl.create 8

let register_resume ~unit_name ~meth = Hashtbl.replace resume_hooks unit_name meth

let resume_method_for units =
  List.find_map (fun u -> Hashtbl.find_opt resume_hooks u) units

let ok_unit : Runtime.reply = Ok Value.Unit
let bad_args k msg = k (Error (Err.Bad_args msg))

(* Methods every composite answers natively. MayI, Iam and Ping must
   remain callable regardless of policy so that objects can probe each
   other; everything else passes through the guard. *)
let unguarded = [ "MayI"; "Iam"; "Ping" ]
let builtin_names = [ "SaveState"; "RestoreState"; "GetMethodNames" ]

let compose ~parts : Runtime.handler =
 fun ctx call k ->
  let { Runtime.meth; args; env } = call in
  (* Every unit's guard must admit the call (conjunction): the object
     part contributes the MayI policy, a typecheck unit contributes IDL
     conformance, and so on. *)
  let guard_decision () =
    if List.mem meth unguarded then Policy.Allow
    else
      let rec all_guards = function
        | [] -> Policy.Allow
        | { guard = Some g; _ } :: rest -> (
            match g ~meth ~args ~env with
            | Policy.Allow -> all_guards rest
            | Policy.Deny _ as d -> d)
        | { guard = None; _ } :: rest -> all_guards rest
      in
      all_guards parts
  in
  match guard_decision () with
  | Policy.Deny reason -> k (Error (Err.Refused reason))
  | Policy.Allow -> (
      match meth with
      | "SaveState" ->
          k (Ok (Value.Record (List.map (fun p -> (p.part_name, p.save ())) parts)))
      | "RestoreState" -> (
          match args with
          | [ Value.Record fields ] ->
              let rec loop = function
                | [] -> k ok_unit
                | p :: rest -> (
                    match List.assoc_opt p.part_name fields with
                    | None -> loop rest
                    | Some st -> (
                        match p.restore st with
                        | Ok () -> loop rest
                        | Error msg -> bad_args k ("RestoreState: " ^ msg)))
              in
              loop parts
          | _ -> bad_args k "RestoreState expects one record argument")
      | "GetMethodNames" ->
          let names =
            builtin_names @ List.concat_map (fun p -> p.method_names) parts
          in
          let dedup =
            List.fold_left
              (fun acc n -> if List.mem n acc then acc else n :: acc)
              [] names
          in
          k (Ok (Value.List (List.rev_map (fun n -> Value.Str n) dedup)))
      | _ -> (
          let rec dispatch = function
            | [] -> k (Error (Err.No_such_method meth))
            | p :: rest -> (
                match p.find meth with
                | Some f -> f ctx args env k
                | None -> dispatch rest)
          in
          dispatch parts))

let activate rt ~host ~loid (opr : Opr.t) =
  (* Resolve all factories before spawning so failure has no side
     effects. *)
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match find_factory name with
        | Some f -> resolve ((name, f) :: acc) rest
        | None -> Error (Printf.sprintf "unknown implementation unit %S" name))
  in
  match resolve [] opr.Opr.units with
  | Error _ as e -> e
  | Ok factories -> (
      let proc =
        Runtime.spawn rt ~host ~loid ~kind:opr.Opr.kind
          ?cache_capacity:opr.Opr.cache_capacity
          ?binding_agent:opr.Opr.binding_agent
          ~handler:(fun _ctx _call k ->
            k (Error (Err.Internal "object still initialising")))
          ()
      in
      let ctx = { Runtime.rt; self = proc } in
      let parts = List.map (fun (_, f) -> f ctx) factories in
      let rec restore_all = function
        | [] -> Ok ()
        | p :: rest -> (
            match List.assoc_opt p.part_name opr.Opr.states with
            | None -> restore_all rest
            | Some st -> (
                match p.restore st with
                | Ok () -> restore_all rest
                | Error msg ->
                    Error
                      (Printf.sprintf "unit %s failed to restore state: %s"
                         p.part_name msg)))
      in
      match restore_all parts with
      | Error msg ->
          Runtime.kill rt proc;
          Error msg
      | Ok () ->
          Runtime.set_handler proc (compose ~parts);
          Ok proc)
