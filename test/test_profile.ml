(** Tests for the profile-feedback extension (§8 future work): block-count
    collection, weight normalisation, behaviour preservation, and the
    actual allocation improvement on a mispredicted workload. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Liverange = Chow_core.Liverange
module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode

let src_loopy =
  {|
proc main() {
  var i = 0;
  var s = 0;
  while (i < 25) {
    s = s + i;
    i = i + 1;
  }
  print(s);
}
|}

let test_block_counts_collected () =
  let c = Pipeline.compile_source Config.baseline (Pipeline.Src src_loopy) in
  let o = Pipeline.run ~profile:true c in
  let counts = Decode.block_counts (Pipeline.program c) o in
  Alcotest.(check bool) "counts present" true (counts <> []);
  (* the loop body of main executed 25 times *)
  let body_counts =
    List.filter_map
      (fun ((pname, _), n) -> if pname = "main" then Some n else None)
      counts
  in
  Alcotest.(check bool) "some block ran 25 times" true
    (List.mem 25 body_counts);
  (* the entry block ran exactly once *)
  let entry =
    List.assoc_opt ("main", Ir.entry_label) counts
  in
  Alcotest.(check (option int)) "entry once" (Some 1) entry

let test_no_profile_no_counts () =
  let c = Pipeline.compile_source Config.baseline (Pipeline.Src src_loopy) in
  let o = Pipeline.run c in
  Alcotest.(check bool) "no counts by default" true (o.Sim.pc_counts = [||]);
  Alcotest.(check bool) "no blocks by default" true
    (Decode.block_counts (Pipeline.program c) o = [])

let test_weights_normalisation () =
  let w = Liverange.weights_of_profile [| 2.; 50.; 0. |] in
  Alcotest.(check (float 0.001)) "entry is 1" 1. w.(Ir.entry_label);
  Alcotest.(check (float 0.001)) "scaled" 25. w.(1);
  Alcotest.(check (float 0.001)) "dead block" 0. w.(2)

(* the bench scenario in miniature: a cold loop that static estimates
   overweight, competing with hot straight-line values *)
let src_mispredicted =
  {|
proc helper(x) { return x * 3 + 1; }

proc f(x, cold) {
  var a = x * 7;
  var b = x + 13;
  var r = helper(a) + helper(b);
  if (cold == 1) {
    var s = 0;
    var i = 0;
    while (i < 3) {
      s = s + helper(x + i) * (x - i);
      i = i + 1;
    }
    r = r + s;
  }
  r = r + a * b + a - b;
  return r + a - b;
}

proc main() {
  var n = 0;
  var acc = 0;
  while (n < 500) {
    var cold = 0;
    if (n == 77) { cold = 1; }
    acc = acc + f(n, cold);
    n = n + 1;
  }
  print(acc);
}
|}

let small_config =
  {
    Config.o3_sw with
    name = "small";
    machine = Machine.restrict ~n_caller:2 ~n_callee:1 ~n_param:2;
  }

let test_profile_preserves_behaviour () =
  let static = Pipeline.run (Pipeline.compile_source small_config (Pipeline.Src src_mispredicted)) in
  let profiled, training =
    Pipeline.compile_with_profile small_config src_mispredicted
  in
  let profiled_o = Pipeline.run profiled in
  Alcotest.(check (list int)) "training output" static.Sim.output
    training.Sim.output;
  Alcotest.(check (list int)) "profiled output" static.Sim.output
    profiled_o.Sim.output

let test_profile_improves_allocation () =
  let static = Pipeline.run (Pipeline.compile_source small_config (Pipeline.Src src_mispredicted)) in
  let profiled, _ =
    Pipeline.compile_with_profile small_config src_mispredicted
  in
  let profiled_o = Pipeline.run profiled in
  let scalar o = o.Sim.scalar_loads + o.Sim.scalar_stores in
  Alcotest.(check bool)
    (Printf.sprintf "less scalar traffic (%d < %d)" (scalar profiled_o)
       (scalar static))
    true
    (scalar profiled_o < scalar static)

let test_profile_on_workload_equivalent () =
  (* profile-guided recompilation of a real workload is behaviourally
     identical *)
  match Chow_workloads.Workloads.find "nim" with
  | None -> Alcotest.fail "nim missing"
  | Some w ->
      let static = Pipeline.run (Pipeline.compile_source Config.o3_sw (Pipeline.Src w.source)) in
      let profiled, _ =
        Pipeline.compile_with_profile Config.o3_sw w.source
      in
      let o = Pipeline.run profiled in
      Alcotest.(check (list int)) "same output" static.Sim.output o.Sim.output

let suite =
  ( "profile",
    [
      Alcotest.test_case "block counts collected" `Quick
        test_block_counts_collected;
      Alcotest.test_case "no profile, no counts" `Quick
        test_no_profile_no_counts;
      Alcotest.test_case "weight normalisation" `Quick
        test_weights_normalisation;
      Alcotest.test_case "behaviour preserved" `Quick
        test_profile_preserves_behaviour;
      Alcotest.test_case "allocation improved" `Quick
        test_profile_improves_allocation;
      Alcotest.test_case "workload equivalence" `Slow
        test_profile_on_workload_equivalent;
    ] )
