type 'a t = Leaf of 'a | And of 'a t list | Xor of (float * 'a t) list

let prob_eps = 1e-9

let leaf a = Leaf a
let and_ children = And children

let xor edges =
  let edges = List.filter (fun (p, _) -> p <> 0.) edges in
  let total =
    List.fold_left
      (fun acc (p, _) ->
        if not (Float.is_finite p) || p < 0. then
          invalid_arg "Tree.xor: edge probability must be a non-negative float";
        acc +. p)
      0. edges
  in
  if total > 1. +. prob_eps then
    invalid_arg (Printf.sprintf "Tree.xor: edge probabilities sum to %g > 1" total);
  Xor edges

let independent tuples = And (List.map (fun (p, a) -> xor [ (p, Leaf a) ]) tuples)

let bid blocks =
  And (List.map (fun block -> xor (List.map (fun (p, a) -> (p, Leaf a)) block)) blocks)

let certain leaves = And (List.map leaf leaves)

(* The structural walkers below use explicit heap work-lists rather than
   recursion: databases routinely exceed the OCaml stack both in width (a
   million-child [And]) and depth (chained conditioning), and these run in
   span attributes on every traced evaluation.  [List.rev_append (List.rev_map
   ...)] is a tail-safe way to push an arbitrarily long child list. *)
let push_children cs rest = List.rev_append (List.rev cs) rest
let push_edges es rest = List.rev_append (List.rev_map snd es) rest

let num_leaves t =
  let n = ref 0 in
  let stack = ref [ t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Leaf _ :: rest ->
        incr n;
        stack := rest
    | And cs :: rest -> stack := push_children cs rest
    | Xor es :: rest -> stack := push_edges es rest
  done;
  !n

let leaves t =
  let acc = ref [] in
  let stack = ref [ t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Leaf a :: rest ->
        acc := a :: !acc;
        stack := rest
    | And cs :: rest -> stack := push_children cs rest
    | Xor es :: rest -> stack := push_edges es rest
  done;
  List.rev !acc

let depth t =
  let best = ref 0 in
  let stack = ref [ (0, t) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (d, node) :: rest -> (
        stack := rest;
        match node with
        | Leaf _ -> if d > !best then best := d
        | And cs ->
            (* An internal node with no children still contributes a path of
               [d] edges plus its own level, matching the recursive
               [1 + fold max (-1)] definition. *)
            if cs = [] then (if d > !best then best := d)
            else stack := List.rev_append (List.rev_map (fun c -> (d + 1, c)) cs) !stack
        | Xor es ->
            if es = [] then (if d > !best then best := d)
            else
              stack :=
                List.rev_append (List.rev_map (fun (_, c) -> (d + 1, c)) es) !stack)
  done;
  !best

let num_nodes t =
  let n = ref 0 in
  let stack = ref [ t ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Leaf _ :: rest ->
        incr n;
        stack := rest
    | And cs :: rest ->
        incr n;
        stack := push_children cs rest
    | Xor es :: rest ->
        incr n;
        stack := push_edges es rest
  done;
  !n

let rec map f = function
  | Leaf a -> Leaf (f a)
  | And cs -> And (List.map (map f) cs)
  | Xor es -> Xor (List.map (fun (p, c) -> (p, map f c)) es)

let indexed t =
  let counter = ref (-1) in
  let rec go = function
    | Leaf a ->
        incr counter;
        Leaf (!counter, a)
    | And cs -> And (List.map go cs)
    | Xor es -> Xor (List.map (fun (p, c) -> (p, go c)) es)
  in
  go t

let index t =
  let it = indexed t in
  let payloads = leaves it |> List.map snd |> Array.of_list in
  (map fst it, payloads)

let rec filter_leaves pred = function
  | Leaf a -> if pred a then Leaf a else And []
  | And cs -> And (List.map (filter_leaves pred) cs)
  | Xor es -> Xor (List.map (fun (p, c) -> (p, filter_leaves pred c)) es)

let rec count_worlds = function
  | Leaf _ -> 1.
  | And cs -> List.fold_left (fun acc c -> acc *. count_worlds c) 1. cs
  | Xor es ->
      let total_p = List.fold_left (fun acc (p, _) -> acc +. p) 0. es in
      let base = List.fold_left (fun acc (_, c) -> acc +. count_worlds c) 0. es in
      if total_p < 1. -. prob_eps then base +. 1. else base

let pp pp_leaf ppf t =
  let rec go ppf = function
    | Leaf a -> Format.fprintf ppf "%a" pp_leaf a
    | And cs ->
        Format.fprintf ppf "@[<hov 2>(and@ %a)@]"
          (Format.pp_print_list ~pp_sep:Format.pp_print_space go)
          cs
    | Xor es ->
        let pp_edge ppf (p, c) = Format.fprintf ppf "%g:%a" p go c in
        Format.fprintf ppf "@[<hov 2>(xor@ %a)@]"
          (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_edge)
          es
  in
  go ppf t
