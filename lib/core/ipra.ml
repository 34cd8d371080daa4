(** One-pass inter-procedural register allocation driver (§2).

    Processes the procedures of a program in depth-first order of the call
    graph (callees first).  Each closed procedure publishes its
    register-usage summary into the shared table before any caller is
    allocated, so a single pass suffices.  With [ipra = false] every
    procedure is allocated with the default linkage convention, which is the
    paper's [-O2] baseline. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Trace = Chow_obs.Trace
module Metrics = Chow_obs.Metrics

let m_masks = Metrics.counter "ipra.masks_published"

type t = {
  results : (string * Alloc_types.result) list;  (** in processing order *)
  usage : Usage.table;
  callgraph : Callgraph.t;
  stats : (string * Coloring.stats) list;
}

let find t name = List.assoc_opt name t.results

(** [allocate_program ?profile ...] optionally takes measured block
    frequencies per procedure (the paper's "feedback of profile data to the
    register allocator", §8 future work); procedures without a profile keep
    the static loop-depth estimates.  [strategy] selects the allocation
    policy (default the paper's priority coloring); every strategy flows
    through the same IPRA publication. *)
let allocate_program ?(ipra = false) ?(shrinkwrap = false)
    ?(strategy = Allocator.Chow)
    ?(profile = fun (_ : string) -> (None : float array option)) ?explain
    (config : Machine.config) (prog : Ir.prog) =
  let callgraph = Callgraph.build prog in
  let usage = Usage.create_table () in
  let results = ref [] in
  let stats = ref [] in
  List.iter
    (fun name ->
      match Ir.find_proc prog name with
      | None -> ()
      | Some p ->
          let is_open = (not ipra) || Callgraph.is_open callgraph name in
          let mode = { Coloring.ipra; shrinkwrap; is_open; usage } in
          let weights = profile name in
          let explain =
            match explain with
            | Some (target, buf) when target = name -> Some buf
            | _ -> None
          in
          let result, info, st =
            (* the span name and args are built only when tracing is armed:
               the disabled path must not allocate per procedure *)
            if Trace.is_on () then
              Trace.span
                ~args:[ ("open", Trace.Str (if is_open then "yes" else "no")) ]
                ("alloc:" ^ name)
                (fun () ->
                  Allocator.allocate strategy ?weights ?explain config mode p)
            else Allocator.allocate strategy ?weights ?explain config mode p
          in
          results := (name, result) :: !results;
          stats := (name, st) :: !stats;
          Option.iter
            (fun i ->
              Usage.publish usage name i;
              Metrics.incr m_masks)
            info)
    (Callgraph.processing_order callgraph);
  {
    results = List.rev !results;
    usage;
    callgraph;
    stats = List.rev !stats;
  }
