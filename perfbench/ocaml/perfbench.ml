(** The benchmark's measuring program.

    [perfbench --workload W --seed N --seconds S --trace 0|1 --pawnc EXE
    --expected FILE] runs one workload and prints, as its last line, one
    JSON object: [correct], [attempted], [failed] and [metrics] — the
    end-to-end metrics with [--trace 0], the per-layer metrics with
    [--trace 1].  Lines before it, prefixed with [#], give every metric
    and the per-input rows in readable form.  Exit code 1 on any wrong
    output or failed operation.  See perfbench/README.md. *)

module W = Chow_workloads.Workloads
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Allocator = Chow_core.Allocator
module Sim = Chow_sim.Sim
module Asm = Chow_codegen.Asm
module Protocol = Chow_server.Protocol

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  pawnc : string;
  expected : (string * int list) list;
  work : string;  (** scratch directory of this run *)
}

(* ----- what the run reports ----- *)

let attempted = ref 0
let failures : string list ref = ref []

let attempt ok what =
  incr attempted;
  if not ok then failures := what :: !failures

let metrics : (string * string * float) list ref = ref []

(** Metrics are recorded raw and printed as measured; the result line
    gives them at the reference host's speed ({!Calib}). *)
let metric name unit v =
  metrics := (name, unit, v) :: !metrics;
  Printf.printf "# %-28s %14.6g %s (raw)\n%!" name v unit

let at_reference_speed factor unit v =
  match unit with
  | "ms" | "s" | "us" -> v *. factor
  | "req/s" | "Mcycles/s" -> v /. factor
  | _ -> v

let row fmt = Printf.printf ("#   " ^^ fmt ^^ "\n%!")

(* ----- shared helpers ----- *)

let shuffle ~seed ~pass l =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Run [pass k] for k = 0, 1, ... until [seconds] have elapsed (at least
    one pass); returns passes made and elapsed seconds. *)
let passes_for seconds pass =
  let t0 = Util.now () in
  let n = ref 0 in
  while !n = 0 || Util.now () -. t0 < seconds do
    pass !n;
    incr n
  done;
  (!n, Util.now () -. t0)

(** Per-input samples, in first-seen input order. *)
module Samples = struct
  type t = { tbl : (string, float list ref) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 64; order = [] }

  let add t k v =
    match Hashtbl.find_opt t.tbl k with
    | Some r -> r := v :: !r
    | None ->
        Hashtbl.replace t.tbl k (ref [ v ]);
        t.order <- t.order @ [ k ]

  let per_key f t = List.map (fun k -> (k, f !(Hashtbl.find t.tbl k))) t.order
  let medians = per_key Util.median
end

let vm_hwm_kb () =
  let line =
    Util.read_file "/proc/self/status"
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
  | None -> 0

(** The reference output of a paper program, from the expected file. *)
let expected_of o name =
  match List.assoc_opt name o.expected with
  | Some v -> v
  | None -> failwith ("no expected output for " ^ name)

let paper_programs () = List.map (fun w -> (w.W.name, w.W.source)) W.all

(** Closed-loop end-to-end metrics shared by the suite workloads, from
    each input's times per operation [per_input].  An input's figure is
    its median time per operation over the run; its best and lower
    quartile are printed beside it.  (The best time, used first, moved
    more from run to run: this host is fast now and then for a while, and
    whether a run catches such a spell decided uopt's best, 200 to 313
    ms over ten runs, while its median stayed within 338 to 406 ms.)
    Percentiles are over the inputs' figures; operations per second is at
    those figures. *)
let suite_e2e ~per_input ~ops ~elapsed =
  List.iter
    (fun (k, (m, b, q)) -> row "%-24s median %10.3f ms, best %10.3f ms, q25 %10.3f ms" k m b q)
    (Samples.per_key (fun l -> (Util.median l, Util.minimum l, Util.quantile 0.25 l)) per_input);
  let figs = List.map snd (Samples.medians per_input) in
  metric "prog_ms" "ms" (Util.geomean figs);
  metric "req_p50_ms" "ms" (Util.quantile 0.5 figs);
  metric "req_p99_ms" "ms" (Util.quantile 0.99 figs);
  row "percentiles over %d inputs' median times" (List.length figs);
  metric "sustained_rps" "req/s" (float_of_int (List.length figs) *. 1000. /. Util.sum figs);
  row "%d operations in %.1f s" ops elapsed

let sim_counts (o : Sim.outcome) =
  (o.Sim.cycles, o.Sim.scalar_loads + o.Sim.scalar_stores, o.Sim.save_loads + o.Sim.save_stores)

let report_counts (cycles, scalar, save) code_words =
  metric "cycles" "count" (float_of_int cycles);
  metric "scalar_memops" "count" (float_of_int scalar);
  metric "save_restore_ops" "count" (float_of_int save);
  metric "code_words" "count" (float_of_int code_words)

let add3 (a, b, c) (x, y, z) = (a + x, b + y, c + z)

(** Set up at least [k] times and until [min_s] seconds went into it
    (at most 25 times), and report the median; the last set-up's state
    is what the run uses, and [discard] (untimed) releases the others. *)
let repeated_setup ?(k = 5) ?(min_s = 1.) ?(discard = ignore) setup =
  let times = ref [] and last = ref None in
  let n () = List.length !times in
  while n () < k || (Util.sum !times < min_s && n () < 25) do
    Option.iter discard !last;
    Calib.tick ();
    let t0 = Util.now () in
    last := Some (setup ());
    times := (Util.now () -. t0) :: !times
  done;
  (Util.median !times, Option.get !last)

(* ----- the pawnc binary as a child process ----- *)

type run_out = { values : int list; counts : int * int * int }

(* [pawnc run --counters] prints the values, then "key: value" lines *)
let parse_run_exn out =
  let lines = String.split_on_char '\n' out in
  let rec values acc = function
    | l :: rest when l <> "" && not (String.starts_with ~prefix:"---" l) ->
        values (int_of_string l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let vs, rest = values [] lines in
  let field key =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.sub l 0 i = key ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      rest
  in
  match (field "cycles", field "scalar loads", field "scalar stores", field "save/restore") with
  | Some c, Some sl, Some ss, Some sr ->
      let save = Scanf.sscanf sr "%d loads, %d stores" ( + ) in
      Some { values = vs; counts = (int_of_string c, int_of_string sl + int_of_string ss, save) }
  | _ -> None

let parse_run out = try parse_run_exn out with _ -> None

let pawnc o args = Util.run_child ~dir:o.work (Array.of_list (o.pawnc :: args))

(** One [pawnc run --counters --O3] of [file], checked against [expect]. *)
let checked_run o ~name ~expect file =
  let c = pawnc o [ "run"; "--counters"; "--O3"; file ] in
  let parsed = if c.Util.code = 0 then parse_run c.Util.out else None in
  let ok =
    match parsed with Some r -> r.values = expect | None -> false
  in
  attempt ok
    (Printf.sprintf "pawnc run %s: exit %d, output %S %s" name c.Util.code
       (String.sub c.Util.out 0 (min 200 (String.length c.Util.out)))
       c.Util.err);
  (c, parsed)

let one_liner = "proc main() { print(1); }\n"

(* ----- per-layer metrics from the span buffer ----- *)

(** Per (input, layer): the median over repeats of the layer's self time
    within one root span; summed over inputs.  Each layer name is
    recorded under one kind of root per workload. *)
let layer_sums spans =
  let s = Samples.create () in
  List.iter
    (fun ((r : Span.t), layers) ->
      List.iter (fun (l, ms) -> Samples.add s (r.Span.input ^ "\000" ^ l) ms) layers)
    (Span.fold spans);
  let sums = Hashtbl.create 32 in
  List.iter
    (fun (k, m) ->
      let layer = List.nth (String.split_on_char '\000' k) 1 in
      Hashtbl.replace sums layer (m +. Option.value ~default:0. (Hashtbl.find_opt sums layer)))
    (Samples.medians s);
  fun layer -> Option.value ~default:0. (Hashtbl.find_opt sums layer)

(** Per input: the median duration of root spans named [name], summed. *)
let root_sum ~name spans =
  let s = Samples.create () in
  List.iter
    (fun (r : Span.t) ->
      if r.Span.parent < 0 && r.Span.name = name then
        Samples.add s r.Span.input ((r.Span.t1 -. r.Span.t0) *. 1000.))
    spans;
  Util.sum (List.map snd (Samples.medians s))

(** The layers a compile's time is made of; [frontend.lex] is not among
    them because parsing lexes again (parse self time minus lex time is
    reported as [frontend.parse_ms]). *)
let compile_layers =
  [ "frontend.parse"; "frontend.lower"; "codegen.layout"; "core.alloc"; "codegen.emit"; "codegen.link" ]

let zero_counts =
  { Layers.tokens = 0; ir_insts = 0; procs = 0; ranges = 0; colored = 0; sw_rounds = 0; splits = 0 }

let add_counts (a : Layers.counts) (c : Layers.counts) =
  {
    Layers.tokens = a.tokens + c.tokens;
    ir_insts = a.ir_insts + c.ir_insts;
    procs = a.procs + c.procs;
    ranges = a.ranges + c.ranges;
    colored = a.colored + c.colored;
    sw_rounds = a.sw_rounds + c.sw_rounds;
    splits = a.splits + c.splits;
  }

(** In-process layer totals a traced run collects besides spans. *)
type probe = {
  mutable counts : Layers.counts;  (** one pass of the decomposed compile *)
  mutable cycles : int;  (** one pass of the timed simulations *)
  mutable growth : int;  (** profile-guided minus plain code words *)
  mutable bytes : int;  (** serialized artifacts, one per input *)
}

let probe = { counts = zero_counts; cycles = 0; growth = 0; bytes = 0 }

(** Every in-process per-layer metric, from the spans recorded so far. *)
let report_layers sums =
  let c = probe.counts in
  let lex = sums "frontend.lex" in
  metric "frontend.lex_ms" "ms" lex;
  metric "frontend.tokens" "count" (float_of_int c.Layers.tokens);
  metric "frontend.parse_ms" "ms" (sums "frontend.parse" -. lex);
  metric "frontend.lower_ms" "ms" (sums "frontend.lower");
  metric "frontend.ir_insts" "count" (float_of_int c.Layers.ir_insts);
  metric "core.alloc_ms" "ms" (sums "core.alloc");
  metric "core.procs" "count" (float_of_int c.Layers.procs);
  metric "core.ranges" "count" (float_of_int c.Layers.ranges);
  metric "core.ranges_colored" "count" (float_of_int c.Layers.colored);
  metric "core.color_ratio" "ratio"
    (float_of_int c.Layers.colored /. float_of_int (max 1 c.Layers.ranges));
  metric "core.sw_rounds" "count" (float_of_int c.Layers.sw_rounds);
  metric "core.splits" "count" (float_of_int c.Layers.splits);
  metric "codegen.layout_ms" "ms" (sums "codegen.layout");
  metric "codegen.emit_ms" "ms" (sums "codegen.emit");
  metric "codegen.link_ms" "ms" (sums "codegen.link");
  metric "codegen.artifact_read_ms" "ms" (sums "codegen.artifact_read");
  metric "codegen.artifact_write_ms" "ms" (sums "codegen.artifact_write");
  metric "codegen.artifact_bytes" "count" (float_of_int probe.bytes);
  metric "compiler.cache_key_ms" "ms" (sums "compiler.cache_key");
  metric "compiler.cache_hit_ms" "ms" (sums "compiler.cache_hit");
  metric "compiler.cache_miss_ms" "ms" (sums "compiler.cache_miss");
  metric "compiler.cache_store_ms" "ms" (sums "compiler.cache_store");
  let exec = sums "sim.execute" in
  metric "sim.decode_ms" "ms" (sums "sim.decode");
  metric "sim.execute_ms" "ms" exec;
  metric "sim.mcycles_per_s" "Mcycles/s" (float_of_int probe.cycles /. exec /. 1000.);
  metric "sim.checker_ms" "ms" (exec -. sums "sim.execute_unchecked");
  metric "sim.profile_ms" "ms" (sums "sim.profile");
  metric "sim.profile_artifact_ms" "ms" (sums "sim.profile_artifact");
  metric "compiler.pgo_compile_ms" "ms" (sums "compiler.pgo_compile");
  metric "codegen.code_growth_words" "count" (float_of_int probe.growth)

(** Decomposed compiles of [inputs]: passes for [seconds], then the
    identity check once per input.  In each pass every input first runs its
    untraced operation [untraced inp] (which returns its wall ms), then
    the decomposed compile under a [root] span, so drift of the host
    affects both alike.  [inside ~parent inp prog] runs within the root
    after the compile; [after inp x] runs outside it on what [inside]
    returned.  Returns the untraced per-input medians, summed. *)
let traced_passes o ~seconds ~root ~untraced ~inside ~after inputs =
  let base = Samples.create () in
  ignore
    (passes_for seconds (fun pass ->
         let total = ref zero_counts in
         List.iter
           (fun (inp : Layers.input) ->
             Samples.add base inp.Layers.id (untraced inp);
             let x =
               Span.time ~input:inp.Layers.id root (fun parent ->
                   let prog, c = Layers.compile ~parent inp in
                   total := add_counts !total c;
                   inside ~parent inp prog)
             in
             after inp x;
             Calib.tick ())
           (shuffle ~seed:o.seed ~pass inputs);
         if pass = 0 then probe.counts <- !total));
  List.iter
    (fun (inp : Layers.input) ->
      attempt (Layers.identical inp)
        ("decomposed compile builds a different image for " ^ inp.Layers.id))
    inputs;
  Util.sum (List.map snd (Samples.medians base))

(** Checked simulation of [prog] under [parent], compared with [expect];
    returns [prog] for the unchecked run after the root closes. *)
let run_checked ~first ~expect ~parent (inp : Layers.input) prog =
  let out = Layers.sim ~parent ~input:inp.Layers.id prog in
  attempt (out.Sim.output = expect) ("wrong output from " ^ inp.Layers.id);
  if first then probe.cycles <- probe.cycles + out.Sim.cycles;
  prog

(** Artifact and cache calls over [inputs], [passes] times, each pass
    against an emptied private cache. *)
let cache_probe o ~passes inputs =
  let cache = Cache.create ~dir:(Filename.concat o.work "probe-cache") () in
  let arts =
    List.map
      (fun (inp : Layers.input) ->
        let c = Pipeline.compile_source inp.Layers.config (Pipeline.Src inp.Layers.src) in
        (inp, List.hd (Pipeline.artifacts c)))
      inputs
  in
  for pass = 0 to passes - 1 do
    Cache.clear cache;
    List.iter
      (fun (inp, art) ->
        let b, missed, hit = Layers.cache_probe ~cache inp art in
        if pass = 0 then probe.bytes <- probe.bytes + b;
        attempt (missed && hit) ("cache probe: unexpected lookup outcome for " ^ inp.Layers.id))
      (shuffle ~seed:o.seed ~pass arts)
  done

(** One profile-guided build of each of [runs]. *)
let pgo_probe runs =
  List.iter
    (fun ((inp : Layers.input), _) ->
      let prog = Layers.compile_plain inp in
      let pgo = Span.time ~input:inp.Layers.id "pgo" (fun parent -> Layers.pgo ~parent inp prog) in
      probe.growth <- probe.growth + Array.length pgo.Asm.code - Array.length prog.Asm.code)
    runs

(** Simulation and profile feedback of [runs] (input, reference output),
    outside any compile root: [passes] checked and unchecked runs, then
    one profile-guided build each. *)
let sim_probe o ~passes runs =
  for pass = 0 to passes - 1 do
    List.iter
      (fun ((inp : Layers.input), expect) ->
        let prog = Layers.compile_plain inp in
        Span.time ~input:inp.Layers.id "run" (fun parent ->
            ignore (run_checked ~first:(pass = 0) ~expect ~parent inp prog));
        ignore (Layers.sim_unchecked ~input:inp.Layers.id prog))
      (shuffle ~seed:o.seed ~pass runs)
  done;
  pgo_probe runs

(* ----- the daemon ----- *)

let counter_delta name ~before ~after = Serve.counter name after - Serve.counter name before

(** Daemon-side layers from the load generator's results. *)
let server_layers ~hit_ratio (rs : Serve.result list) =
  let split = List.filter_map (fun r -> Option.map (fun qs -> (r, qs)) (Serve.server_ms r)) rs in
  let med f l = Util.median (List.map f l) in
  let of_cls c = List.filter (fun ((r : Serve.result), _) -> r.Serve.slot.Serve.cls = c) split in
  metric "server.queue_wait_ms" "ms" (med (fun (_, (q, _)) -> q) split);
  metric "server.service_hit_ms" "ms" (med (fun (_, (_, s)) -> s) (of_cls Serve.Hit));
  metric "server.service_miss_ms" "ms" (med (fun (_, (_, s)) -> s) (of_cls Serve.Miss));
  metric "server.transport_ms" "ms"
    (med (fun (r, (q, s)) -> Serve.latency_ms r -. Serve.late_ms r -. q -. s) split);
  metric "server.protocol_us" "us"
    (med (fun (r : Serve.result) -> (r.Serve.encode_s +. r.Serve.decode_s) *. 1e6) rs);
  metric "server.busy" "count"
    (float_of_int
       (List.length (List.filter (fun (r : Serve.result) -> r.Serve.reply = Ok Protocol.Busy) rs)));
  metric "loadgen.late_ms" "ms" (Util.quantile 0.99 (List.map Serve.late_ms rs));
  metric "compiler.cache_hit_ratio" "ratio" hit_ratio

let check_results ~cold_text rs =
  List.iter
    (fun (r : Serve.result) ->
      match Serve.check ~cold_text r with
      | None -> attempt true ""
      | Some msg -> attempt false (Printf.sprintf "unit %d: %s" r.Serve.slot.Serve.unit msg))
    rs

(** The daemon's cache counters must have moved by exactly the number of
    hit and miss requests sent between the two snapshots. *)
let check_cache_counts ~before ~after rs =
  let n c = List.length (List.filter (fun (r : Serve.result) -> r.Serve.slot.Serve.cls = c) rs) in
  let dh = counter_delta "cache.hit" ~before ~after and dm = counter_delta "cache.miss" ~before ~after in
  attempt
    (dh = n Serve.Hit && dm = n Serve.Miss)
    (Printf.sprintf "daemon counted %d hits and %d misses for %d warm and %d cold requests" dh dm
       (n Serve.Hit) (n Serve.Miss));
  float_of_int dh /. float_of_int (max 1 (dh + dm))

(** Cold builds of [srcs] (keeping each reply's text), then four rounds
    of hits in seeded order, at a low fixed rate: the daemon layers
    measured on a suite workload's own units. *)
let mini_serve o srcs =
  let d = Serve.spawn ~pawnc:o.pawnc ~dir:(Filename.concat o.work "mini") in
  Fun.protect ~finally:(fun () -> ignore (Serve.stop d)) @@ fun () ->
  let units = Array.of_list srcs in
  let n = Array.length units in
  let slots cls l = Array.of_list (List.map (fun i -> { Serve.unit = i; cls }) l) in
  let src (s : Serve.slot) = units.(s.Serve.unit) in
  let before = Serve.stats d in
  let cold = Serve.drive d ~rate:100. ~slots:(slots Serve.Miss (List.init n Fun.id)) ~src in
  let cold_text = Array.make n "" in
  List.iter
    (fun (r : Serve.result) ->
      match r.Serve.reply with
      | Ok (Protocol.Done { text; _ }) -> cold_text.(r.Serve.slot.Serve.unit) <- text
      | _ -> ())
    cold;
  let warm =
    Serve.drive d ~rate:100. ~src
      ~slots:(slots Serve.Hit (shuffle ~seed:o.seed ~pass:0 (List.concat (List.init 4 (fun _ -> List.init n Fun.id)))))
  in
  let rs = cold @ warm in
  check_results ~cold_text:(Array.get cold_text) rs;
  let hit_ratio = check_cache_counts ~before ~after:(Serve.stats d) rs in
  server_layers ~hit_ratio rs

(* ----- trace summary ----- *)

(** How far the layers' self times may be from the untraced e2e time. *)
let closure_bound = 0.25

(** The layers' self times [layers_ms] must add up to the untraced
    end-to-end time. *)
let trace_summary ~untraced ~traced ~layers_ms =
  let closure = layers_ms /. untraced in
  metric "trace.overhead" "ratio" ((traced /. untraced) -. 1.);
  metric "trace.closure" "ratio" closure;
  row "untraced %.3f ms, traced %.3f ms, layer self times %.3f ms" untraced traced layers_ms;
  attempt
    (Float.abs (closure -. 1.) <= closure_bound)
    (Printf.sprintf "layer self times cover %.3f of the untraced time (bound 1 +/- %g)" closure
       closure_bound)

(** Median wall time of [pawnc run] on a one-line program. *)
let startup_metric o =
  let one = Filename.concat o.work "one.pawn" in
  Util.write_file one one_liner;
  let ms =
    Util.median
      (List.init 15 (fun _ ->
           Calib.tick ();
           (pawnc o [ "run"; "--O3"; one ]).Util.wall_ms))
  in
  metric "pawnc.startup_ms" "ms" ms;
  ms

(* ===== suite-run: the pawnc binary, one child at a time ===== *)

let suite_setup o () =
  let dir = Filename.concat o.work "progs" in
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let files =
    List.map
      (fun (name, src) ->
        let f = Filename.concat dir (name ^ ".pawn") in
        Util.write_file f src;
        (name, src, f))
      (paper_programs ())
  in
  (* warm the binary: one run of a one-line program *)
  let one = Filename.concat dir "one.pawn" in
  Util.write_file one one_liner;
  ignore (pawnc o [ "run"; "--O3"; one ]);
  files

(** Passes over the programs for [seconds], one [pawnc run] each; the
    simulator counters of every program must repeat exactly.  Returns
    each program's wall ms per run, the largest peak RSS (KiB), the
    counters, and the runs made and seconds taken. *)
let suite_timed o files seconds =
  let per_input = Samples.create () in
  let rss = ref 0 and ops = ref 0 in
  let counts = Hashtbl.create 16 in
  let _, elapsed =
    passes_for seconds (fun pass ->
        List.iter
          (fun (name, _, file) ->
            let c, parsed = checked_run o ~name ~expect:(expected_of o name) file in
            Calib.tick ();
            Samples.add per_input name c.Util.wall_ms;
            rss := max !rss c.Util.maxrss_kb;
            incr ops;
            match (parsed, Hashtbl.find_opt counts name) with
            | Some r, None -> Hashtbl.replace counts name r.counts
            | Some r, Some c -> attempt (c = r.counts) ("counters changed between runs of " ^ name)
            | None, _ -> ())
          (shuffle ~seed:o.seed ~pass files))
  in
  (per_input, !rss, counts, !ops, elapsed)

let suite_untraced o =
  let setup_s, files = repeated_setup (suite_setup o) in
  metric "setup_s" "s" setup_s;
  let per_input, rss, counts, ops, elapsed = suite_timed o files o.seconds in
  suite_e2e ~per_input ~ops ~elapsed;
  (* code size of the images the runs executed, rebuilt in-process from
     the same sources *)
  let code_words =
    List.fold_left
      (fun acc (_, src, _) ->
        acc + Array.length (Pipeline.program (Pipeline.compile_source Config.o3_sw (Pipeline.Src src))).Asm.code)
      0 files
  in
  report_counts (Hashtbl.fold (fun _ c acc -> add3 c acc) counts (0, 0, 0)) code_words;
  metric "peak_rss_mb" "MiB" (float_of_int rss /. 1024.)

let suite_traced o =
  let files = suite_setup o () in
  let startup = startup_metric o in
  let inputs = List.map (fun (name, src, _) -> { Layers.id = name; config = Config.o3_sw; src }) files in
  let runs = List.map (fun (inp : Layers.input) -> (inp, expected_of o inp.Layers.id)) inputs in
  let first = Hashtbl.create 16 in
  let inside ~parent (inp : Layers.input) prog =
    let fresh = not (Hashtbl.mem first inp.Layers.id) in
    Hashtbl.replace first inp.Layers.id ();
    run_checked ~first:fresh ~expect:(expected_of o inp.Layers.id) ~parent inp prog
  in
  let after (inp : Layers.input) prog = ignore (Layers.sim_unchecked ~input:inp.Layers.id prog) in
  let untraced (inp : Layers.input) =
    let _, _, file = List.find (fun (n, _, _) -> n = inp.Layers.id) files in
    (fst (checked_run o ~name:inp.Layers.id ~expect:(expected_of o inp.Layers.id) file)).Util.wall_ms
  in
  let untraced = traced_passes o ~seconds:(0.6 *. o.seconds) ~root:"run" ~untraced ~inside ~after inputs in
  pgo_probe runs;
  cache_probe o ~passes:3 inputs;
  let spans = Span.all () in
  let sums = layer_sums spans in
  report_layers sums;
  mini_serve o (List.map (fun (_, src, _) -> src) files);
  let procs = float_of_int (List.length files) in
  (* the decomposed compile lexes once more than compile_source does;
     that pass is not tracing cost *)
  trace_summary ~untraced
    ~traced:((procs *. startup) +. root_sum ~name:"run" spans -. sums "frontend.lex")
    ~layers_ms:((procs *. startup) +. Util.sum (List.map sums (compile_layers @ [ "sim.decode"; "sim.execute" ])))

(* ===== suite-compile: Pipeline.compile_source in-process ===== *)

(** The paper's configurations, and -O3+sw under the two other
    allocation strategies. *)
let configs =
  List.map (fun c -> (c.Config.name, c)) Config.all
  @ List.map
      (fun (tag, a) -> (Config.o3_sw.Config.name ^ "/" ^ tag, Config.with_alloc a Config.o3_sw))
      [ ("linear", Allocator.Linear); ("spill-all", Allocator.Spill_all) ]

(** Seeded synthetic units larger than the largest paper program. *)
let synth_sizes = [ 40; 70; 100 ]

let is_synthetic (inp : Layers.input) = String.starts_with ~prefix:"synth" inp.Layers.id

let synthetic o =
  List.map
    (fun n ->
      let u = Gen.generate ~seed:o.seed ~salt:n ~nprocs:n in
      (Printf.sprintf "synth%d" n, Gen.render u, Gen.eval u))
    synth_sizes

(** (input, reference output): every paper program under every
    configuration, and the synthetic units at -O2 and -O3+sw. *)
let compile_setup o () =
  let paper =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun (tag, config) -> ({ Layers.id = name ^ "@" ^ tag; config; src }, expected_of o name))
          configs)
      (paper_programs ())
  in
  let synth =
    List.concat_map
      (fun (name, src, expect) ->
        List.map
          (fun (c : Config.t) -> ({ Layers.id = name ^ "@" ^ c.Config.name; config = c; src }, expect))
          [ Config.baseline; Config.o3_sw ])
      (synthetic o)
  in
  let inputs = paper @ synth in
  List.iter (fun ((inp : Layers.input), _) -> ignore (Layers.compile_plain inp)) inputs;
  inputs

let compile_timed o inputs seconds =
  let per_input = Samples.create () and ops = ref 0 in
  let _, elapsed =
    passes_for seconds (fun pass ->
        List.iter
          (fun ((inp : Layers.input), _) ->
            let t0 = Util.now () in
            ignore (Pipeline.compile_source inp.Layers.config (Pipeline.Src inp.Layers.src));
            Samples.add per_input inp.Layers.id (Util.ms_since t0);
            Calib.tick ();
            incr ops)
          (shuffle ~seed:o.seed ~pass inputs))
  in
  (per_input, !ops, elapsed)

let suite_compile_untraced o =
  let setup_s, inputs = repeated_setup (compile_setup o) in
  metric "setup_s" "s" setup_s;
  let per_input, ops, elapsed = compile_timed o inputs o.seconds in
  let rss = vm_hwm_kb () in
  suite_e2e ~per_input ~ops ~elapsed;
  (* every image runs once, checked, after the timed region; the exact
     counts cover the paper programs, whose text no seed changes *)
  let counts, words =
    List.fold_left
      (fun (counts, words) ((inp : Layers.input), expect) ->
        let c = Pipeline.compile_source inp.Layers.config (Pipeline.Src inp.Layers.src) in
        let out = Pipeline.run c in
        attempt (out.Sim.output = expect) ("wrong output from " ^ inp.Layers.id);
        if is_synthetic inp then (counts, words)
        else (add3 counts (sim_counts out), words + Array.length (Pipeline.program c).Asm.code))
      ((0, 0, 0), 0) inputs
  in
  report_counts counts words;
  metric "peak_rss_mb" "MiB" (float_of_int rss /. 1024.)

let suite_compile_traced o =
  let inputs = compile_setup o () in
  ignore (startup_metric o);
  let untraced (inp : Layers.input) =
    let t0 = Util.now () in
    ignore (Pipeline.compile_source inp.Layers.config (Pipeline.Src inp.Layers.src));
    Util.ms_since t0
  in
  let untraced =
    traced_passes o ~seconds:(0.55 *. o.seconds) ~root:"compile" ~untraced
      ~inside:(fun ~parent:_ _ _ -> ())
      ~after:(fun _ () -> ())
      (List.map fst inputs)
  in
  cache_probe o ~passes:3 (List.map fst inputs);
  let synth = List.filter (fun ((inp : Layers.input), _) -> is_synthetic inp && inp.Layers.config == Config.o3_sw) inputs in
  sim_probe o ~passes:9 synth;
  let spans = Span.all () in
  let sums = layer_sums spans in
  report_layers sums;
  mini_serve o
    (List.filter_map
       (fun ((inp : Layers.input), _) -> if inp.Layers.config == Config.o3_sw then Some inp.Layers.src else None)
       inputs);
  trace_summary ~untraced
    ~traced:(root_sum ~name:"compile" spans -. sums "frontend.lex")
    ~layers_ms:(Util.sum (List.map sums compile_layers))

(* ===== main ===== *)

(** Each workload's untraced and traced run. *)
let workloads =
  [
    ("suite-run", (suite_untraced, suite_traced));
    ("suite-compile", (suite_compile_untraced, suite_compile_traced));
  ]

let read_expected path =
  Util.read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) |> List.filter (( <> ) "") with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | name :: vs -> Some (name, List.map int_of_string vs))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and calibrate = ref 0 in
  let pawnc = ref "" and expected = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--pawnc", Arg.Set_string pawnc, "EXE the pawnc binary");
      ("--expected", Arg.Set_string expected, "FILE reference outputs");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--calibrate", Arg.Set_int calibrate, "N print N host-speed kernel times (ms) and exit");

    ]
    (fun a -> raise (Arg.Bad a))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --pawnc EXE --expected FILE --work DIR";
  if !calibrate > 0 then begin
    let ms = List.init !calibrate (fun _ -> Calib.kernel ()) in
    List.iter (Printf.printf "%.4f\n") ms;
    Printf.printf "best %.4f ms, median %.4f ms\n" (Util.minimum ms) (Util.median ms);
    exit 0
  end;
  let untraced, traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      pawnc = !pawnc;
      expected = read_expected !expected;
      work = !work;
    }
  in
  Util.rm_rf o.work;
  Util.mkdir_p o.work;
  at_exit Serve.kill_all;
  (try if o.trace then traced o else untraced o
   with e ->
     Serve.kill_all ();
     attempt false ("benchmark aborted: " ^ Printexc.to_string e));
  let failed = List.length !failures in
  if not o.trace then
    metric "ok_frac" "ratio" (float_of_int (!attempted - failed) /. float_of_int (max 1 !attempted));
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) (List.rev !failures);
  if o.trace then
    Util.write_file
      (Filename.concat (Filename.dirname o.work) ("trace-" ^ o.workload ^ ".json"))
      (Span.chrome_json (Span.all ()));
  Util.rm_rf o.work;
  let factor = Calib.factor () in
  Printf.printf "# host speed factor %.4f: kernel median %.4f ms (best %.4f) over %d runs, reference %.4f ms\n"
    factor (Util.median !Calib.samples) (Util.minimum !Calib.samples) (List.length !Calib.samples)
    Calib.reference_ms;
  let scaled = List.rev_map (fun (name, unit, v) -> (name, unit, at_reference_speed factor unit v)) !metrics in
  List.iter (fun (name, unit, v) -> Printf.printf "# %-28s %14.6g %s\n" name v unit) scaled;
  let correct = failed = 0 in
  print_endline
    (Util.json_to_string
       (Util.Obj
          [
            ("correct", Util.Bool correct);
            ("attempted", Util.Int (max 1 !attempted));
            ("failed", Util.Int failed);
            ( "metrics",
              Util.Obj
                (List.map
                   (fun (name, unit, v) -> (name, Util.Obj [ ("value", Util.Num v); ("unit", Util.Str unit) ]))
                   scaled) );
          ]));
  exit (if correct then 0 else 1)
