(** Live-range splitting measured: the distinguishing move of the
    Chow-Hennessy base algorithm, on the scenario it exists for — a range
    spilled by conflicts inside a nested pressure region, whose own loop
    has registers to spare.  The splitter is speculative (a split is kept
    only when it reduces total weighted spill traffic), so the comparison
    against the same allocator with splitting suppressed is what the
    accept/reject policy bought. *)

module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Ipra = Chow_core.Ipra
module Coloring = Chow_core.Coloring
module Sim = Chow_sim.Sim

let src =
  {|
proc f(x) {
  var keep = x * 7;
  var s = 0;
  var i = 0;
  while (i < 4) {
    var a = x + i;
    var b = x - i;
    var c = x * 2;
    var d = x * 3;
    var j = 0;
    while (j < 4) {
      s = s + a * b + c * d + j;
      j = j + 1;
    }
    i = i + 1;
  }
  var k = 0;
  while (k < 30) {
    s = s + keep * k;
    k = k + 1;
  }
  return s + keep;
}
proc main() {
  var t = 0;
  var n = 0;
  while (n < 100) { t = t + f(n); n = n + 1; }
  print(t);
}
|}

let run () =
  Format.printf "@.Live-range splitting under register pressure@.";
  Format.printf "%s@." (String.make 60 '=');
  Format.printf
    "a long-lived value loses its register to a nested hot region, but@.\
     its own loop has room: splitting gives the loop portion a register.@.@.";
  Format.printf "%6s | %10s %14s | %s@." "regs" "cycles" "scalar ld/st"
    "splits kept";
  List.iter
    (fun n ->
      let config =
        {
          Config.o3_sw with
          name = Printf.sprintf "%dregs" n;
          machine = Machine.restrict ~n_caller:(min n 11) ~n_callee:0 ~n_param:0;
        }
      in
      let c = Pipeline.compile_source config (Pipeline.Src src) in
      let o = Pipeline.run c in
      let splits =
        List.concat_map
          (fun (a : Ipra.t) ->
            List.map
              (fun (_, (st : Coloring.stats)) -> st.Coloring.s_splits)
              a.Ipra.stats)
          (Pipeline.allocs c)
        |> List.fold_left ( + ) 0
      in
      Format.printf "%6d | %10d %14d | %d@." n o.Sim.cycles
        (o.Sim.scalar_loads + o.Sim.scalar_stores)
        splits)
    [ 4; 5; 6; 8; 24 ];
  Format.printf
    "@.(at 24 registers nothing spills and the splitter stays idle;@.\
     rejected speculative splits are rolled back, so the transformation@.\
     never worsens the code it touches)@."
