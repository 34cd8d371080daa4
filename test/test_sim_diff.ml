(** Differential sweep: the decoded engine ({!Sim.run}) against the
    reference engine ({!Sim.run_reference}) on all thirteen workloads,
    under the baseline and the full -O3+sw configurations, with block
    profiling on.  Outcomes must match exactly: output, cycle count,
    calls, per-tag load/store counters and per-pc profiles.

    This is its own test executable (see test/dune) so plain
    [dune runtest] always exercises the engine equivalence even when the
    slow suites of the main runner are skipped. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode
module W = Chow_workloads.Workloads

let check_agree name (prog : Chow_codegen.Asm.program) =
  let d = Sim.run ~profile:true prog in
  let r = Sim.run_reference ~profile:true prog in
  Alcotest.(check (list int)) (name ^ ": output") r.Sim.output d.Sim.output;
  Alcotest.(check int) (name ^ ": cycles") r.Sim.cycles d.Sim.cycles;
  Alcotest.(check int) (name ^ ": calls") r.Sim.calls d.Sim.calls;
  Alcotest.(check int) (name ^ ": data loads") r.Sim.data_loads d.Sim.data_loads;
  Alcotest.(check int) (name ^ ": data stores") r.Sim.data_stores
    d.Sim.data_stores;
  Alcotest.(check int) (name ^ ": scalar loads") r.Sim.scalar_loads
    d.Sim.scalar_loads;
  Alcotest.(check int) (name ^ ": scalar stores") r.Sim.scalar_stores
    d.Sim.scalar_stores;
  Alcotest.(check int) (name ^ ": save loads") r.Sim.save_loads d.Sim.save_loads;
  Alcotest.(check int) (name ^ ": save stores") r.Sim.save_stores
    d.Sim.save_stores;
  Alcotest.(check (array int)) (name ^ ": pc counts") r.Sim.pc_counts
    d.Sim.pc_counts;
  (* attribution is complete: per-procedure cycles sum to the total *)
  Alcotest.(check int)
    (name ^ ": proc cycles sum")
    d.Sim.cycles
    (List.fold_left (fun acc (_, c) -> acc + c) 0
       (Decode.attribute_cycles prog d.Sim.pc_counts))

let test_workload (w : W.t) () =
  List.iter
    (fun (config : Config.t) ->
      let c = Pipeline.compile_source config (Pipeline.Src w.W.source) in
      check_agree
        (Printf.sprintf "%s/%s" w.W.name config.Config.name)
        (Pipeline.program c))
    [ Config.baseline; Config.o3_sw ]

let () =
  Alcotest.run "sim-diff"
    [
      ( "decoded vs reference",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_workload w))
          W.all );
    ]
