module Runtime = Legion_rt.Runtime

type t = {
  roots : Runtime.proc list;
  levels : Runtime.proc list list;
  leaves : Runtime.proc list;
}

let build sys ~hosts ~fanout ~levels ~n_leaves =
  if fanout <= 0 then invalid_arg "Tree.build: fanout must be positive";
  if levels < 0 then invalid_arg "Tree.build: levels must be non-negative";
  if n_leaves <= 0 then invalid_arg "Tree.build: n_leaves must be positive";
  if hosts = [] then invalid_arg "Tree.build: no hosts";
  let host_arr = Array.of_list hosts in
  let host_cursor = ref 0 in
  let next_host () =
    let h = host_arr.(!host_cursor mod Array.length host_arr) in
    incr host_cursor;
    h
  in
  if levels = 0 then begin
    let roots =
      List.init n_leaves (fun _ -> System.start_agent sys (next_host ()))
    in
    { roots; levels = [ roots ]; leaves = roots }
  end
  else begin
    (* Width of each layer, root (0) downwards: the leaf layer has
       n_leaves; each layer above is ceil(width / fanout). *)
    let widths = Array.make (levels + 1) 0 in
    widths.(levels) <- n_leaves;
    for l = levels - 1 downto 0 do
      widths.(l) <- (widths.(l + 1) + fanout - 1) / fanout
    done;
    let layers = Array.make (levels + 1) [] in
    layers.(0) <-
      List.init widths.(0) (fun _ -> System.start_agent sys (next_host ()));
    for l = 1 to levels do
      let parents = Array.of_list layers.(l - 1) in
      layers.(l) <-
        List.init widths.(l) (fun i ->
            let parent = parents.(i / fanout) in
            System.start_agent sys ~parent:(Runtime.address_of parent)
              (next_host ()))
    done;
    let levels_list = Array.to_list layers in
    { roots = layers.(0); levels = levels_list; leaves = layers.(levels) }
  end
