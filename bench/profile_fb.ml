(** Profile feedback: the paper's closing "future work" ("the feedback of
    profile data to the register allocator is a capability that we plan to
    add"), implemented and measured.

    The static frequency estimate weights a block by [10^loop-depth], so a
    register-starved allocator will always prefer variables that live in
    loops.  This program is built to fool that estimate: the loop is almost
    never executed, while the hot work is straight-line code whose values
    must survive a call.  Compiling once, measuring real block frequencies
    in the simulator, and recompiling with the measured weights corrects
    the choice. *)

module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim

let src =
  {|
proc helper(x) { return x * 3 + 1; }

proc f(x, cold) {
  // hot straight-line values a and b live across the helper calls AND
  // across the cold region below, so they compete for registers with the
  // loop variables — but they sit at loop depth 0
  var a = x * 7;
  var b = x + 13;
  var r = helper(a) + helper(b);

  if (cold == 1) {
    // cold region at loop depth 1: statically it looks 10x hotter
    var s = 0;
    var i = 0;
    while (i < 3) {
      var t = x + i;
      var u = x - i;
      s = s + helper(t) * u + t;
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
  while (n < 4000) {
    var cold = 0;
    if (n == 777) { cold = 1; }     // the loop runs once in 4000 calls
    acc = acc + f(n, cold);
    n = n + 1;
  }
  print(acc);
}
|}

(* scarce registers, so the allocator has to choose whom to starve *)
let machine = Machine.restrict ~n_caller:2 ~n_callee:1 ~n_param:2

let config = { Config.o3_sw with name = "-O3+sw/small"; machine }

let run () =
  Format.printf "@.Profile feedback (the paper's §8 future work)@.";
  Format.printf "%s@." (String.make 60 '=');
  let static = Pipeline.compile_source config (Pipeline.Src src) in
  let static_o = Pipeline.run static in
  let profiled, training = Pipeline.compile_with_profile config src in
  let profiled_o = Pipeline.run profiled in
  assert (static_o.Sim.output = profiled_o.Sim.output);
  Format.printf
    "a cold inner loop outweighs the hot straight-line region under the@.\
     static 10^depth estimate; measured frequencies correct it:@.@.";
  Format.printf "%-34s %10s %14s@." "" "cycles" "scalar ld/st";
  Format.printf "%-34s %10d %14d@." "static weights (10^loop-depth)"
    static_o.Sim.cycles
    (static_o.Sim.scalar_loads + static_o.Sim.scalar_stores);
  Format.printf "%-34s %10d %14d@." "measured weights (profile feedback)"
    profiled_o.Sim.cycles
    (profiled_o.Sim.scalar_loads + profiled_o.Sim.scalar_stores);
  Format.printf "%-34s %10d@." "(training run)" training.Sim.cycles;
  Format.printf "@.profile feedback recovered %.1f%% of the cycles@."
    (100.
    *. float_of_int (static_o.Sim.cycles - profiled_o.Sim.cycles)
    /. float_of_int static_o.Sim.cycles)
