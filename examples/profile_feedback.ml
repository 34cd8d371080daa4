(** Profile feedback end to end: the capability the paper closes with
    ("the feedback of profile data to the register allocator is a
    capability that we plan to add in the future", §8).

    The static frequency estimate weights a block by 10^loop-depth, so a
    rarely-executed inner loop can outrank hot straight-line code when
    registers are scarce.  This example compiles such a program, lets the
    simulator double as the profiler, recompiles with measured block
    frequencies, and prints what changed — including where the contested
    variables ended up each time.

    Run with: [dune exec examples/profile_feedback.exe] *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Ipra = Chow_core.Ipra
module Alloc = Chow_core.Alloc_types
module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode

let source =
  {|
proc helper(x) { return x * 3 + 1; }

proc f(x, cold) {
  var a = x * 7;                  // hot: live across the helper calls...
  var b = x + 13;
  var r = helper(a) + helper(b);
  if (cold == 1) {                // ...but this loop looks 10x hotter
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
  while (n < 2000) {
    var cold = 0;
    if (n == 777) { cold = 1; }   // the loop runs once in 2000 calls
    acc = acc + f(n, cold);
    n = n + 1;
  }
  print(acc);
}
|}

(* a scarce register file, so the allocator must choose whom to starve *)
let config =
  {
    Config.o3_sw with
    name = "-O3+sw/small";
    machine = Machine.restrict ~n_caller:2 ~n_callee:1 ~n_param:2;
  }

let location_of (c : Pipeline.compiled) proc var =
  List.find_map
    (fun (alloc : Ipra.t) ->
      match Ipra.find alloc proc with
      | None -> None
      | Some res ->
          let found = ref None in
          Array.iteri
            (fun v k ->
              match k with
              | Ir.Vlocal n when n = var -> (
                  match res.Alloc.r_assignment.(v) with
                  | Alloc.Lreg r -> found := Some (Machine.name r)
                  | Alloc.Lstack -> found := Some "memory")
              | Ir.Vlocal _ | Ir.Vparam _ | Ir.Vtemp -> ())
            res.Alloc.r_proc.Ir.vreg_kinds;
          !found)
    (Pipeline.allocs c)
  |> Option.value ~default:"?"

let show label (c : Pipeline.compiled) (o : Sim.outcome) =
  Format.printf "%-24s cycles=%-8d scalar ld/st=%-6d a->%s b->%s s->%s@."
    label o.Sim.cycles
    (o.Sim.scalar_loads + o.Sim.scalar_stores)
    (location_of c "f" "a") (location_of c "f" "b") (location_of c "f" "s")

let () =
  Format.printf
    "3 allocatable registers; the cold loop's variables statically\n\
     outweigh the hot region's a and b:@.@.";
  let static = Pipeline.compile_source config (Pipeline.Src source) in
  let static_o = Pipeline.run static in
  show "static weights" static static_o;
  let profiled, training = Pipeline.compile_with_profile config source in
  let profiled_o = Pipeline.run profiled in
  show "profile feedback" profiled profiled_o;
  assert (static_o.Sim.output = profiled_o.Sim.output);
  (* the training run executed the static build *)
  Format.printf
    "@.training run: %d cycles, %d basic blocks measured@."
    training.Sim.cycles
    (List.length (Decode.block_counts (Pipeline.program static) training));
  Format.printf
    "cycles recovered by feedback: %d (%.1f%%)@."
    (static_o.Sim.cycles - profiled_o.Sim.cycles)
    (100.
    *. float_of_int (static_o.Sim.cycles - profiled_o.Sim.cycles)
    /. float_of_int static_o.Sim.cycles)
