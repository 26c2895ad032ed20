let default_limit = 200_000

(* The single enumeration core: worlds as (probability, reversed leaf-index
   list) accumulators, produced lazily so the brute-force oracle can stream
   instances whose world count exceeds any list [limit]. *)
let to_seq (a : Arena.t) =
  let child v j = a.children.(a.child_start.(v) + j) in
  let rec go v : (float * int list) Seq.t =
    let count = a.child_count.(v) in
    if Arena.is_leaf a v then Seq.return (1., [ a.leaf_ix.(v) ])
    else if Arena.kind a v = Arena.kind_xor then begin
      let total = ref 0. in
      for j = 0 to count - 1 do
        total := !total +. a.eprob.(child v j)
      done;
      let residual = 1. -. !total in
      let base =
        Seq.init count (child v)
        |> Seq.concat_map (fun c ->
               let p = a.eprob.(c) in
               Seq.map (fun (q, w) -> (p *. q, w)) (go c))
      in
      if residual > 1e-12 then Seq.cons (residual, []) base else base
    end
    else
      Seq.fold_left
        (fun acc c ->
          Seq.concat_map
            (fun (p, w) ->
              Seq.map (fun (q, w') -> (p *. q, List.rev_append w' w)) (go c))
            acc)
        (Seq.return (1., []))
        (Seq.init count (child v))
  in
  Seq.map (fun (p, w) -> (p, List.rev w)) (go a.root)

let fold a ~init ~f = Seq.fold_left (fun acc (p, w) -> f acc p w) init (to_seq a)

let enumerate ?(limit = default_limit) a =
  let worlds = List.of_seq (Seq.take (limit + 1) (to_seq a)) in
  if List.compare_length_with worlds limit > 0 then
    invalid_arg (Printf.sprintf "Worlds.enumerate: more than %d worlds" limit);
  worlds

let enumerate_merged ?limit a =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (p, w) ->
      let ids = List.sort compare w in
      Hashtbl.replace tbl ids
        (p +. Option.value (Hashtbl.find_opt tbl ids) ~default:0.))
    (enumerate ?limit a);
  Hashtbl.fold (fun ids p acc -> (ids, p) :: acc) tbl []
  |> List.sort (fun (ids1, _) (ids2, _) -> compare ids1 ids2)

let world_probability ?limit a ids =
  let target = List.sort_uniq compare ids in
  enumerate_merged ?limit a
  |> List.fold_left (fun acc (w, p) -> if w = target then acc +. p else acc) 0.

(* Iterative over the CSR children with an explicit work-list: sampling runs
   on production-sized databases where a recursive walk would overflow the
   OCaml stack.  One uniform draw per visited xor node, in depth-first order,
   so seeded runs stay reproducible. *)
let sample rng (a : Arena.t) =
  let acc = ref [] in
  let stack = ref [ a.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        let start = a.child_start.(v) and count = a.child_count.(v) in
        if Arena.is_leaf a v then begin
          acc := a.leaf_ix.(v) :: !acc;
          stack := rest
        end
        else if Arena.kind a v = Arena.kind_and then begin
          let s = ref rest in
          for j = count - 1 downto 0 do
            s := a.children.(start + j) :: !s
          done;
          stack := !s
        end
        else begin
          let u = Consensus_util.Prng.uniform rng in
          (* residual mass: no child is chosen *)
          let chosen = ref rest and acc_p = ref 0. and j = ref 0 in
          while !j < count do
            let c = a.children.(start + !j) in
            let upto = !acc_p +. a.eprob.(c) in
            if u < upto then begin
              chosen := c :: rest;
              j := count
            end
            else begin
              acc_p := upto;
              incr j
            end
          done;
          stack := !chosen
        end
  done;
  List.rev !acc

let expectation ?limit a ~f =
  enumerate ?limit a |> List.fold_left (fun acc (p, w) -> acc +. (p *. f w)) 0.

let monte_carlo rng ~samples a ~f =
  if samples <= 0 then invalid_arg "Worlds.monte_carlo: samples must be positive";
  let acc = ref 0. in
  for _ = 1 to samples do
    acc := !acc +. f (sample rng a)
  done;
  !acc /. float_of_int samples
