let print ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad c s = s ^ String.make (List.nth widths c - String.length s) ' ' in
  let line ch =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths) ^ "+"
  in
  let render row =
    "| " ^ String.concat " | " (List.mapi pad row) ^ " |"
  in
  Printf.printf "\n%s\n%s\n%s\n%s\n" title (line '-') (render header) (line '-');
  List.iter (fun r -> print_endline (render r)) rows;
  print_endline (line '-')
