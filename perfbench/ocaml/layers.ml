(** Per-layer probes: the compile pipeline decomposed into its public
    calls, and timed calls into the artifact, cache, simulator and
    profiler layers.  Every probe records spans ({!Span}); the untraced
    measurements never go through this file. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Lexer = Chow_frontend.Lexer
module Parser = Chow_frontend.Parser
module Lower = Chow_frontend.Lower
module Ir = Chow_ir.Ir
module Ipra = Chow_core.Ipra
module Usage = Chow_core.Usage
module Coloring = Chow_core.Coloring
module Alloc_types = Chow_core.Alloc_types
module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Link = Chow_codegen.Link
module Frame = Chow_codegen.Frame
module Emit = Chow_codegen.Emit
module Objfile = Chow_codegen.Objfile
module Decode = Chow_sim.Decode
module Profile = Chow_sim.Profile

(** One compile input: an identifier, a configuration and a unit. *)
type input = { id : string; config : Config.t; src : string }

(** Counts the decomposed compile leaves behind, per compile. *)
type counts = {
  tokens : int;
  ir_insts : int;
  procs : int;
  ranges : int;
  colored : int;
  sw_rounds : int;
  splits : int;
}

let ir_size (prog : Ir.prog) =
  List.fold_left
    (fun acc (p : Ir.proc) ->
      Array.fold_left (fun acc b -> acc + List.length b.Ir.insts + 1) acc p.Ir.blocks)
    0 prog.Ir.procs

(* the registers a caller may assume survive a call to this procedure:
   the published mask's contract for closed procedures, the callee-saved
   convention otherwise *)
let preserved (alloc : Ipra.t) (res : Alloc_types.result) =
  if res.Alloc_types.r_open then Machine.callee_saved
  else
    match Usage.find alloc.Ipra.usage res.Alloc_types.r_proc.Ir.pname with
    | Some info -> Usage.preserved_of_mask info.Usage.mask
    | None -> Machine.callee_saved

(** [compile ~parent inp] compiles [inp] through the public calls the
    pipeline makes — lex (timed on its own; parse lexes again), parse,
    check + lower, data layout, allocation, frame + emission into a unit
    artifact, link — each in its own span under a ["compile"] span.
    Returns the linked image and the counts. *)
let compile ?(parent = -1) (inp : input) =
  let c = inp.config and input = inp.id in
  Span.time ~parent ~input "compile" @@ fun root ->
  let step name f = Span.time ~parent:root ~input name (fun _ -> f ()) in
  let tokens = step "frontend.lex" (fun () -> List.length (Lexer.tokenize inp.src)) in
  let ast = step "frontend.parse" (fun () -> Parser.parse inp.src) in
  let ir = step "frontend.lower" (fun () -> Lower.lower_program ~require_main:true ast) in
  let ir_insts = ir_size ir in
  let layout, data_end, init = step "codegen.layout" (fun () -> Link.layout ~base:0 ir) in
  let alloc =
    step "core.alloc" (fun () ->
        Ipra.allocate_program ~ipra:c.Config.ipra ~shrinkwrap:c.Config.shrinkwrap
          ~strategy:c.Config.alloc c.Config.machine ir)
  in
  let art =
    step "codegen.emit" (fun () ->
        let procs =
          List.map
            (fun (name, (res : Alloc_types.result)) ->
              let frame = Frame.build res in
              {
                Objfile.pa_code = Emit.emit_proc ~layout res frame;
                pa_open = res.Alloc_types.r_open;
                pa_preserved = preserved alloc res;
                pa_usage =
                  (if res.Alloc_types.r_open then None
                   else Usage.find alloc.Ipra.usage name);
              })
            alloc.Ipra.results
        in
        {
          Objfile.o_procs = procs;
          o_data_base = 0;
          o_data_size = data_end;
          o_data_init = init;
          o_externs =
            Objfile.externs_of_procs (List.map (fun p -> p.Objfile.pa_code) procs);
        })
  in
  let prog = step "codegen.link" (fun () -> Pipeline.link_units [ art ]) in
  let sum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 alloc.Ipra.stats in
  let counts =
    {
      tokens;
      ir_insts;
      procs = List.length alloc.Ipra.results;
      ranges = sum (fun s -> s.Coloring.s_nranges);
      colored = sum (fun s -> s.Coloring.s_allocated);
      sw_rounds = sum (fun s -> s.Coloring.s_sw_iterations);
      splits = sum (fun s -> s.Coloring.s_splits);
    }
  in
  (prog, counts)

(** The untraced compile every e2e measurement uses. *)
let compile_plain (inp : input) =
  Pipeline.program (Pipeline.compile_source inp.config (Pipeline.Src inp.src))

(** The decomposed path must build the very image the pipeline builds. *)
let identical (inp : input) =
  fst (compile inp) = compile_plain inp

(** [sim ~parent ~input prog] decodes and runs [prog] with the contract
    checker on, each call in its own span; returns the outcome. *)
let sim ?(parent = -1) ~input prog =
  let d = Span.time ~parent ~input "sim.decode" (fun _ -> Decode.decode prog) in
  Span.time ~parent ~input "sim.execute" (fun _ -> Decode.execute ~check:true d)

(** The same decoded image with the checker off, as its own root, so
    checked minus unchecked is the checker's cost. *)
let sim_unchecked ~input prog =
  let d = Decode.decode prog in
  Span.time ~input "sim.execute_unchecked" (fun _ -> Decode.execute ~check:false d)

(** Profile, serialize the artifact and read it back, then build with it;
    returns the profile-guided image. *)
let pgo ?(parent = -1) (inp : input) prog =
  let input = inp.id in
  let report =
    Span.time ~parent ~input "sim.profile" (fun _ -> Profile.run ~check:true prog)
  in
  let artifact =
    Span.time ~parent ~input "sim.profile_artifact" (fun _ ->
        Profile.read_artifact
          (Profile.write_artifact
             (Profile.artifact
                ~source_digest:(Pipeline.source_digest [ inp.src ])
                ~config_fp:(Config.fingerprint inp.config)
                prog report)))
  in
  Span.time ~parent ~input "compiler.pgo_compile" (fun _ ->
      let pg = Pipeline.pgo ~config:inp.config ~srcs:[ inp.src ] artifact in
      Pipeline.program
        (Pipeline.compile_source ~pgo:pg inp.config (Pipeline.Src inp.src)))

(** Artifact and cache calls on one unit: write and read the artifact,
    then key, miss, store and hit in a private cache directory. *)
let cache_probe ~cache (inp : input) (art : Objfile.t) =
  let input = inp.id in
  Span.time ~input "cache" @@ fun root ->
  let step name f = Span.time ~parent:root ~input name (fun _ -> f ()) in
  let bytes = step "codegen.artifact_write" (fun () -> Objfile.write art) in
  ignore (step "codegen.artifact_read" (fun () -> Objfile.read bytes));
  let key =
    step "compiler.cache_key" (fun () ->
        Cache.key ~config_fp:(Config.fingerprint inp.config) ~source:inp.src
          ~data_base:0)
  in
  let miss = step "compiler.cache_miss" (fun () -> Cache.find cache key) in
  step "compiler.cache_store" (fun () -> Cache.store cache key art);
  let hit = step "compiler.cache_hit" (fun () -> Cache.find cache key) in
  (String.length bytes, miss = None, hit <> None)
