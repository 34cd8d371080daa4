(** Host-speed calibration.

    A shared host's speed drifts by tens of percent within minutes, in
    CPU time as much as in wall time, so two runs of the same code minutes
    apart can differ more than any bound worth keeping.  A fixed reference
    computation — the benchmark's own interpreter ({!Gen.eval}) on a fixed
    generated unit, code that no change to the compiler touches — runs
    between the measured operations.  The reference time over its median
    time in the run is the run's speed factor, and timed metrics are
    reported scaled by it: as milliseconds (or requests per second) on a
    host where the kernel takes the reference time.  The suites report
    each input's median time too, so the two medians follow the same
    spells of a host that is fast now and then for a while.  The raw
    figures are printed beside them. *)

let kernel_unit = lazy (Gen.generate ~seed:0 ~salt:0 ~nprocs:13)

(** Interpretations of [kernel_unit] per kernel run (about 5 ms). *)
let reps = 400

(** The reference time: the kernel's best time on the 2-vCPU Intel Xeon
    VM the benchmark was built on (the least of [perfbench --calibrate
    400]).  It only fixes the scale of the reported times. *)
let reference_ms = 5.0

let samples : float list ref = ref []
let last = ref neg_infinity

(** Minimum seconds between two kernel runs from {!tick}. *)
let interval_s = 0.2

let kernel () =
  let u = Lazy.force kernel_unit in
  let t0 = Util.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Gen.eval u))
  done;
  let ms = Util.ms_since t0 in
  samples := ms :: !samples;
  last := Util.now ();
  ms

(** Run the kernel when [interval_s] has passed since the last run; call
    between measured operations, outside their timing. *)
let tick () = if Util.now () -. !last >= interval_s then ignore (kernel ())

(** [n] kernel runs back to back, where no operation may be disturbed. *)
let burst n =
  for _ = 1 to n do
    ignore (kernel ())
  done

(** The run's speed factor: the reference time over the run's median
    kernel time (below 1 on a host slower than the reference). *)
let factor () =
  if !samples = [] then burst 20;
  reference_ms /. Util.median !samples
