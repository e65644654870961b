(* Replay rows for the traced run: single layers timed on the host
   clock, driven by the inputs the workload itself produced (its tapped
   payloads, its link latencies, its client's LOID sequence).

   Each row times plain batched loops: a batch is long enough (about
   [batch_s]) for the clock to resolve it, the row is the median of
   [batches] batches in ns per operation, and minor words per operation
   come from the allocation counter over all of them. *)

open Fixture
module Codec = Legion_wire.Codec
module Envelope = Legion_wire.Envelope
module Binding = Legion_naming.Binding
module Address = Legion_naming.Address

let batch_s = 0.01
let batches = 7

(* [run_batch ()] performs [per_batch] operations. Returns
   (median ns/op, minor words/op). *)
let time_row name ~per_batch run_batch =
  Probe.span name (fun () ->
      (* Size the batch: repeat until one pass covers [batch_s]. *)
      let reps = ref 1 in
      let pass () =
        let t0 = Probe.now_ns () in
        for _ = 1 to !reps do
          run_batch ()
        done;
        Probe.ns_between t0 (Probe.now_ns ())
      in
      while pass () < batch_s *. 1e9 && !reps < 1 lsl 20 do
        reps := !reps * 2
      done;
      let w0 = Probe.minor_words () in
      let ns = Array.init batches (fun _ -> pass ()) in
      let words = Probe.minor_words () -. w0 in
      let ops = float_of_int (per_batch * !reps) in
      (median ns /. ops, words /. (ops *. float_of_int batches)))

let wire (payloads : Value.t array) =
  if Array.length payloads = 0 then []
  else
    let n = Array.length payloads in
    let encoded = Array.map Codec.encode payloads in
    let sealed = Array.map Envelope.seal payloads in
    let row name f inputs =
      let ns, words = time_row name ~per_batch:n (fun () -> Array.iter f inputs) in
      [ (name ^ "_ns", ns); (name ^ "_words", words) ]
    in
    let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
    row "wire.encode" (fun v -> ignore (Sys.opaque_identity (Codec.encode v))) payloads
    @ row "wire.decode" (fun s -> ignore (Sys.opaque_identity (Codec.decode s))) encoded
    @ row "wire.seal" (fun v -> ignore (Sys.opaque_identity (Envelope.seal v))) payloads
    @ row "wire.unseal" (fun s -> ignore (Sys.opaque_identity (Envelope.unseal s))) sealed
    @ row "wire.size_bytes" (fun v -> ignore (Sys.opaque_identity (Value.size_bytes v))) payloads
    @ [ ("wire.payload_bytes", float_of_int bytes /. float_of_int n) ]

(* The client's own LOID sequence through a fresh cache of the same
   capacity: a miss installs a binding, as the comm layer does. *)
let naming (seq : Loid.t array) ~capacity =
  if Array.length seq = 0 then []
  else
    let bindings =
      Array.map
        (fun loid ->
          Binding.make ~loid ~address:(Address.singleton (Address.Sim { host = 0; slot = 0 })) ())
        seq
    in
    let ns, words =
      time_row "naming.find" ~per_batch:(Array.length seq) (fun () ->
          let cache = Cache.create ~capacity () in
          Array.iteri
            (fun i loid ->
              match Cache.find cache ~now:0.0 loid with
              | Some _ -> ()
              | None -> Cache.add cache ~now:0.0 bindings.(i))
            seq)
    in
    [ ("naming.find_ns", ns); ("naming.find_words", words) ]

(* A bare Engine.post/step kernel: [chains] self-rescheduling events
   whose delays cycle through the workload's own link latencies. *)
let engine (delays : float array) =
  let delays = if Array.length delays = 0 then [| 0.001 |] else delays in
  let nd = Array.length delays in
  let events = 20_000 and chains = 64 in
  let ns, words =
    time_row "sim.bare" ~per_batch:events (fun () ->
        let sim = Engine.create () in
        let budget = ref events and i = ref 0 in
        let rec tick () =
          if !budget > 0 then begin
            decr budget;
            incr i;
            Engine.post sim ~delay:delays.(!i mod nd) tick
          end
        in
        for c = 1 to chains do
          Engine.post sim ~delay:delays.(c mod nd) tick
        done;
        while Engine.step sim do
          ()
        done)
  in
  [ ("sim.bare_ns_per_event", ns); ("sim.bare_words_per_event", words) ]

(* A bare two-host invoke_address round trip, then the same with each
   runtime feature switched on alone. Tenancy only acts on budgeted
   objects, so its row arms the registry on top of admission. *)
let rpc () =
  let round_trip name ~config ~server_admission ~tenants =
    let sim = Engine.create () in
    let prng = Prng.create ~seed:1L in
    let registry = Counter.Registry.create () in
    let net = Network.create ~sim ~prng:(Prng.split prng) () in
    let site = Network.add_site net ~name:"s" in
    let h0 = Network.add_host net ~site ~name:"h0" in
    let h1 = Network.add_host net ~site ~name:"h1" in
    let rt = Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) ~config () in
    let mk i = Loid.make ~class_id:9L ~class_specific:(Int64.of_int i) () in
    let server =
      Runtime.spawn rt ~host:h1 ~loid:(mk 1) ~kind:"app" ~admission:server_admission
        ~handler:(fun _ call k -> k (Ok (Value.List call.Runtime.args)))
        ()
    in
    let client =
      Runtime.spawn rt ~host:h0 ~loid:(mk 2) ~kind:"client"
        ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
        ()
    in
    let env =
      if tenants then begin
        let reg = Legion_rt.Tenant.create () in
        ignore (Legion_rt.Tenant.register reg ~name:"t" ~responsible:(mk 3) ~weight:2 ());
        Runtime.set_tenants rt (Some reg);
        Legion_sec.Env.make ~responsible:(mk 3) ~security:(mk 3) ~calling:(mk 2)
      end
      else Legion_sec.Env.of_self (mk 2)
    in
    let ctx = { Runtime.rt; self = client } in
    let address = Runtime.address_of server in
    let calls = 2_000 in
    time_row name ~per_batch:calls (fun () ->
        for _ = 1 to calls do
          let done_ = ref false in
          Runtime.invoke_address ctx ~address ~dst:(mk 1) ~meth:"Echo"
            ~args:[ Value.Int 1 ] ~env (fun _ -> done_ := true);
          while (not !done_) && Engine.step sim do
            ()
          done
        done)
  in
  let base = { Runtime.default_config with dedup_capacity = None } in
  let bare_ns, bare_words =
    round_trip "rt.rpc" ~config:base ~server_admission:None ~tenants:false
  in
  let variant name ~config ~server_admission ~tenants =
    (name, fst (round_trip name ~config ~server_admission ~tenants))
  in
  let budget = Some Runtime.default_admission in
  [
    ("rt.rpc_ns", bare_ns);
    ("rt.rpc_words", bare_words);
    variant "rt.rpc_ns.admission" ~config:base ~server_admission:budget ~tenants:false;
    variant "rt.rpc_ns.tenants" ~config:base ~server_admission:budget ~tenants:true;
    variant "rt.rpc_ns.dedup"
      ~config:{ base with dedup_capacity = Some 4096 }
      ~server_admission:None ~tenants:false;
    variant "rt.rpc_ns.breaker"
      ~config:{ base with breaker = Some Legion_rt.Breaker.default_config }
      ~server_admission:None ~tenants:false;
  ]
