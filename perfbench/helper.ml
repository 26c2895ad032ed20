(* In-process side of the repository benchmark (driven by perfbench/run.py).

   [helper replay DIR] reads a generated serve workload (DIR/dbs.tsv,
   DIR/requests.tsv and one body file per request) and, for every distinct
   request, computes the reference answer exactly as the daemon would
   ([Api.run_result] with the same database, query, rng seed and cache
   setting, rendered by [Protocol.answer_json]).  It also times the layers
   the daemon calls per request from outside: [Formats.load_db],
   [Protocol.parse_query_body], [Api.run_result] on a bench-owned engine
   pool, and [Protocol.result_json] + [Json.to_string].  Output is one JSON
   object in DIR/replay.json.

   [helper lineage --seed N --seconds S --trace 0|1 --out FILE] is the
   lineage workload: a closed loop over seeded [Lineage_gen] cases calling
   [Inference.probability], each result checked against pure Shannon
   expansion within [Fcmp] tolerance.

   No tracing is added inside the program: every number here is a timing
   around a public function or a counter the library already keeps. *)

module Api = Consensus.Api
module Protocol = Consensus_serve.Protocol
module Json = Consensus_obs.Json
module Formats = Consensus_textio.Formats
module Pool = Consensus_engine.Pool
module Metrics = Consensus_engine.Metrics
module Cache = Consensus_cache.Cache
module Prng = Consensus_util.Prng
module Fcmp = Consensus_util.Fcmp
module Inference = Consensus_pdb.Inference
module Lineage_gen = Consensus_workload.Lineage_gen

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("helper: " ^ msg);
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tsv path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (String.split_on_char '\t')

let median_int xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Median wall time of [reps] calls of [f], in nanoseconds. *)
let median_ns reps f =
  median_int
    (List.init reps (fun _ ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         now_ns () - t0))

let vmhwm_kb () =
  read_file "/proc/self/status" |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         try Scanf.sscanf l "VmHWM: %d kB" Option.some with _ -> None)
  |> Option.value ~default:0

(* A bench-side span: name, start and end on CLOCK_MONOTONIC (ns), parent
   span name and the request id the spans of one request share. *)
let span_json ~name ~t0 ~t1 ~parent ~request =
  Json.Obj
    [
      ("name", Json.Str name);
      ("start_ns", Json.Int t0);
      ("end_ns", Json.Int t1);
      ("parent", match parent with Some p -> Json.Str p | None -> Json.Null);
      ("request", Json.Str request);
    ]

(* ---------- replay of a serve workload ---------- *)

type request = {
  id : string;
  db_name : string;
  seed : int;
  cache : bool;
  body : string;
}

let family_of query = List.hd (String.split_on_char '-' (Api.query_name query))

let replay dir =
  let path f = Filename.concat dir f in
  let db_specs =
    List.map
      (function
        | [ name; file ] -> (name, file)
        | _ -> die "dbs.tsv: expected NAME<TAB>FILE")
      (tsv (path "dbs.tsv"))
  in
  let load_all () = List.map (fun (n, f) -> (n, Formats.load_db f)) db_specs in
  let load_db_ns = median_ns 5 load_all in
  let dbs = load_all () in
  let requests =
    List.map
      (function
        | [ id; db_name; seed; cache; body_file ] ->
            {
              id;
              db_name;
              seed = int_of_string seed;
              cache = bool_of_string cache;
              body = read_file (path body_file);
            }
        | _ -> die "requests.tsv: expected ID DB SEED CACHE FILE")
      (tsv (path "requests.tsv"))
  in
  (* Mirror the daemon's default: the shared cache is on, and a request
     with cache=false bypasses it. *)
  Cache.set_enabled true;
  Inference.stats_reset ();
  let pool = Pool.create () in
  let spans = ref [] in
  let span ~name ~t0 ~t1 ~parent ~request =
    spans := span_json ~name ~t0 ~t1 ~parent ~request :: !spans
  in
  let results =
    List.map
      (fun r ->
        let db =
          match List.assoc_opt r.db_name dbs with
          | Some db -> db
          | None -> die "request %s: unknown database %s" r.id r.db_name
        in
        let t_req = now_ns () in
        let query =
          match Protocol.parse_query_body r.body with
          | Ok q -> q
          | Error e -> die "request %s: %s" r.id e
        in
        let t_parsed = now_ns () in
        span ~name:"protocol.parse" ~t0:t_req ~t1:t_parsed
          ~parent:(Some "replay.request") ~request:r.id;
        let run () =
          let options =
            Api.Options.make ~pool ~rng:(Prng.create ~seed:r.seed ())
              ~cache:r.cache ()
          in
          let t0 = now_ns () in
          let result = Api.run_result ~options db query in
          let t1 = now_ns () in
          span ~name:"api.run_result" ~t0 ~t1 ~parent:(Some "replay.request")
            ~request:r.id;
          (result, t1 - t0)
        in
        let result, cold_ns = run () in
        (* A cached request is served warm after its first evaluation, as in
           the daemon once the warm-up pass has run. *)
        let result, run_ns = if r.cache then run () else (result, cold_ns) in
        let answer =
          match result with
          | Ok a -> Json.to_string (Protocol.answer_json db a)
          | Error e -> die "request %s: %s" r.id (Api.Error.to_string e)
        in
        let encode () =
          Json.to_string
            (Protocol.result_json ~request:r.id ~db_name:r.db_name ~query
               ~elapsed:0. ~db result)
        in
        let t_enc = now_ns () in
        ignore (encode ());
        span ~name:"protocol.encode" ~t0:t_enc ~t1:(now_ns ())
          ~parent:(Some "replay.request") ~request:r.id;
        span ~name:"replay.request" ~t0:t_req ~t1:(now_ns ()) ~parent:None
          ~request:r.id;
        let parse_ns =
          median_ns 21 (fun () -> Protocol.parse_query_body r.body)
        in
        let encode_ns = median_ns 21 encode in
        Json.Obj
          [
            ("id", Json.Str r.id);
            ("family", Json.Str (family_of query));
            ("answer", Json.Str answer);
            ("parse_us", Json.Float (float_of_int parse_ns /. 1e3));
            ("encode_us", Json.Float (float_of_int encode_ns /. 1e3));
            ("run_ms", Json.Float (float_of_int run_ns /. 1e6));
          ])
      requests
  in
  let stages = Metrics.snapshot (Pool.metrics pool) in
  Pool.shutdown pool;
  let by_worker = List.fold_left (fun a s -> a + s.Metrics.by_worker) 0 stages in
  let by_caller = List.fold_left (fun a s -> a + s.Metrics.by_caller) 0 stages in
  let chunks = by_worker + by_caller in
  let ro_hits, ro_misses = Inference.readonce_stats () in
  let out =
    Json.Obj
      [
        ("load_db_s", Json.Float (float_of_int load_db_ns /. 1e9));
        ("requests", Json.List results);
        ( "pool",
          Json.Obj
            [
              ( "worker_chunk_frac",
                Json.Float
                  (if chunks = 0 then 0.
                   else float_of_int by_worker /. float_of_int chunks) );
              ( "stage_wall_s",
                Json.Obj
                  (List.map
                     (fun s -> (s.Metrics.name, Json.Float s.Metrics.wall))
                     stages) );
            ] );
        ( "inference",
          Json.Obj
            [
              ("expansions", Json.Int (Inference.stats_expansions ()));
              ("readonce_hits", Json.Int ro_hits);
              ("readonce_misses", Json.Int ro_misses);
            ] );
        ("spans", Json.List (List.rev !spans));
      ]
  in
  Out_channel.with_open_bin (path "replay.json") (fun oc ->
      output_string oc (Json.to_string out))

(* ---------- the lineage workload ---------- *)

(* The case set: an equal number of cases of every [Lineage_gen] SPJ shape,
   plus cases on which Shannon expansion does real work — wide projected
   products (read-once only after factorization), the canonical P4 witness
   and non-hierarchical joins (provably not read-once).  Fixed counts per
   shape keep the set's cost from varying with the seed. *)
let lineage_cases seed =
  let g = Prng.create ~seed () in
  let shape name n =
    List.init n (fun _ ->
        let c = Lineage_gen.gen_shape name g in
        (c.reg, c.lineage))
  in
  let mix = List.concat_map (fun name -> shape name 1600) Lineage_gen.shape_names in
  let products =
    List.init 400 (fun i -> Lineage_gen.product_lineage ~width:(4 + (i mod 5)) g)
  in
  Array.of_list
    (mix @ products @ shape "nonhier" 1200 @ [ Lineage_gen.p4_witness () ])

let lineage ~seed ~seconds ~trace ~out =
  (* Set-up is timed five times; the earlier sets are garbage-collected
     before the next build, so they do not add to the peak RSS. *)
  let build () =
    Gc.full_major ();
    let t0 = now_ns () in
    let cases = lineage_cases seed in
    (cases, now_ns () - t0)
  in
  let earlier = List.init 4 (fun _ -> snd (build ())) in
  let cases, last = build () in
  let build_ns = last :: earlier in
  let reference =
    Array.map
      (fun (reg, f) -> Inference.probability ~readonce:false ~decompose:false reg f)
      cases
  in
  (* Visit order: a seeded shuffle, cycled. *)
  let order = Array.init (Array.length cases) Fun.id in
  let g = Prng.create ~seed:(seed + 1) () in
  for i = Array.length order - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (* Latencies go into a fixed buffer touched up front, so the process's
     peak RSS does not grow with the number of operations completed. *)
  let cap = 2_000_000 in
  let lat = Bigarray.(Array1.create int32 c_layout cap) in
  Bigarray.Array1.fill lat 0l;
  let failed = ref 0 and ops = ref 0 in
  let spans = ref [] in
  (* One closed-loop phase of [dur] seconds; [traced] phases also record a
     span per call (kept in memory, written at the end). *)
  let phase ~dur ~traced =
    let dur_ns = int_of_float (dur *. 1e9) in
    let start = now_ns () in
    let stop = start + dur_ns in
    let n = ref 0 in
    (* Correct completions per slice of the phase, for a median rate. *)
    let slices = 10 in
    let slice_ops = Array.make slices 0 in
    while now_ns () < stop && !ops < cap do
      let c = order.(!ops mod Array.length order) in
      let reg, f = cases.(c) in
      let t0 = now_ns () in
      let p = Inference.probability reg f in
      let t1 = now_ns () in
      lat.{!ops} <- Int32.of_int (min (t1 - t0) (Int32.to_int Int32.max_int));
      if Fcmp.approx p reference.(c) then begin
        let k = (t1 - start) * slices / dur_ns in
        if k < slices then slice_ops.(k) <- slice_ops.(k) + 1
      end
      else incr failed;
      if traced then
        spans :=
          span_json ~name:"pdb.probability" ~t0 ~t1 ~parent:None
            ~request:(Printf.sprintf "op-%d" !ops)
          :: !spans;
      incr ops;
      incr n
    done;
    (!n, dur, slice_ops)
  in
  Inference.stats_reset ();
  let phases =
    if trace then
      let u = phase ~dur:(seconds /. 2.) ~traced:false in
      let t = phase ~dur:(seconds /. 2.) ~traced:true in
      [ ("untraced", u); ("traced", t) ]
    else [ ("untraced", phase ~dur:seconds ~traced:false) ]
  in
  let peak_kb = vmhwm_kb () in
  let raw = Bytes.create (4 * !ops) in
  for i = 0 to !ops - 1 do
    Bytes.set_int32_le raw (4 * i) lat.{i}
  done;
  Out_channel.with_open_bin (out ^ ".lat") (fun oc -> Out_channel.output_bytes oc raw);
  let ro_hits, ro_misses = Inference.readonce_stats () in
  let out_json =
    Json.Obj
      [
        ( "setup_s",
          Json.List (List.map (fun ns -> Json.Float (float_of_int ns /. 1e9)) build_ns)
        );
        ("cases", Json.Int (Array.length cases));
        ("ops", Json.Int !ops);
        ("failed", Json.Int !failed);
        ( "phases",
          Json.Obj
            (List.map
               (fun (name, (n, dur, slice_ops)) ->
                 ( name,
                   Json.Obj
                     [
                       ("ops", Json.Int n);
                       ("seconds", Json.Float dur);
                       ( "slice_ops",
                         Json.List
                           (Array.to_list (Array.map (fun c -> Json.Int c) slice_ops))
                       );
                     ] ))
               phases) );
        ("expansions", Json.Int (Inference.stats_expansions ()));
        ("readonce_hits", Json.Int ro_hits);
        ("readonce_misses", Json.Int ro_misses);
        ("vmhwm_kb", Json.Int peak_kb);
        ("spans", Json.List (List.rev !spans));
      ]
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string out_json))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "replay"; dir ] -> replay dir
  | [ "lineage"; "--seed"; seed; "--seconds"; seconds; "--trace"; trace; "--out"; out ]
    ->
      lineage ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
        ~trace:(trace = "1") ~out
  | _ ->
      die
        "usage: helper replay DIR | helper lineage --seed N --seconds S \
         --trace 0|1 --out FILE"
