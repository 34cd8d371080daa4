(** Global registry of named monotonic counters, gauges and histograms.

    Handles are created once (typically at module initialisation) and are
    cheap to update: an update is one enabled check plus one atomic add, and
    it is a no-op while the registry is disabled.  Hot loops should count
    into a local [int] and publish once per batch — the convention used by
    the dataflow solver and the simulator — so the disabled cost on those
    paths is literally zero.

    Atomic addition commutes, so counter totals are bit-identical for any
    schedule of the daemon's worker domains as long as the work itself is
    deterministic. *)

type counter
type gauge
type histogram

val is_on : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** [counter name] registers (or retrieves — the registry is keyed by name,
    so independent call sites share one cell) the counter [name]. *)
val counter : string -> counter

val add : counter -> int -> unit
val incr : counter -> unit

(** [gauge name] registers or retrieves the gauge [name]: a point-in-time
    level (queue depth, open connections, heap words) rather than a
    monotonic total.  Same discipline as counters — a disabled registry
    makes {!set}/{!gauge_add} free no-ops that allocate nothing. *)
val gauge : string -> gauge

(** [set g v] publishes the current level; last writer wins. *)
val set : gauge -> int -> unit

(** [gauge_add g n] moves the level by [n] (which may be negative).
    Addition commutes, so concurrent inc/dec pairs from any number of
    domains leave a deterministic final level. *)
val gauge_add : gauge -> int -> unit

(** [histogram name] registers or retrieves a power-of-two-bucket histogram:
    an observation of [v] lands in the bucket with the smallest upper bound
    [2^k >= v].  The exact sum of observed values is kept alongside the
    buckets for the OpenMetrics [_sum] row. *)
val histogram : string -> histogram

val observe : histogram -> int -> unit

(** Zero every registered value (registrations are kept). *)
val reset : unit -> unit

(** Snapshot of every registered metric, sorted by name: counters and
    gauges as [(name, value)], histograms as one [("name.le_N", count)]
    entry per non-empty bucket plus a [("name.sum", total)] row once the
    histogram has any observation.  Bucket entries of one histogram sort
    by their numeric threshold (le_1, le_2, ..., le_16), not
    lexicographically. *)
val dump : unit -> (string * int) list

(** Just the gauges, sorted by name — the instantaneous levels a flight
    recorder dump or a trap report wants to carry. *)
val gauges : unit -> (string * int) list

(** {2 Typed snapshot}

    {!dump} flattens everything to [(name, value)] rows, which is right
    for tables, diffs and JSON-lines, but an exposition format needs to
    know each family's instrument to emit the correct [# TYPE] and row
    shapes.  {!typed_snapshot} keeps the three instruments apart:
    histograms carry [(upper_bound, count)] pairs in ascending bound order
    (empty buckets absent, possibly the empty list) and the exact sum of
    observations. *)

type typed_snapshot = {
  t_counters : (string * int) list;
  t_gauges : (string * int) list;
  t_histograms : (string * (int * int) list * int) list;
      (** [(name, buckets, sum)] *)
}

val typed_snapshot : unit -> typed_snapshot

(** The {!dump} snapshot as an aligned two-column table. *)
val pp_table : Format.formatter -> unit -> unit

(** {2 Per-request deltas}

    A long-lived process (the compile server) reports what one request
    cost without resetting the global registry mid-flight: bracket the
    request with two {!snapshot}s and {!diff} them. *)

type snapshot = (string * int) list

(** [snapshot ()] is {!dump}: the current value of every registered
    metric, sorted by name. *)
val snapshot : unit -> snapshot

(** [diff before after] is the name-wise [after - before], dropping zero
    deltas; names absent from [before] count from zero.  Under concurrent
    requests the registry is shared, so a delta attributes to the
    bracketed request plus whatever overlapped it — exact when requests
    are serialized, an upper bound otherwise.

    Metrics registered {i after} [before] was taken thus still appear in
    the delta (as their full value) — late-registered per-request-class
    histograms are never silently dropped. *)
val diff : snapshot -> snapshot -> snapshot

(** {2 Histogram analysis}

    Consumers of snapshots — the [pawnc top] live view, the serve bench's
    queue-wait gate — turn snapshot rows back into distributions. *)

(** [bucket_rows hist rows] extracts histogram [hist]'s buckets from a
    snapshot (or a {!diff} of two) as [(upper_bound, count)] pairs in
    ascending bound order; empty buckets are absent. *)
val bucket_rows : string -> snapshot -> (int * int) list

(** [percentile buckets p] estimates the [p]-th percentile
    ([0. <= p <= 100.]) of a bucketed distribution as the upper bound of
    the bucket holding that rank — an overestimate by at most the bucket
    width, i.e. at most 2x.  [0] on an empty distribution.  The bench
    gates pin this form: it is integral, stable under tiny mass shifts,
    and its bias is one-sided (never an underestimate). *)
val percentile : (int * int) list -> float -> int

(** [percentile_interp buckets p] is the linearly-interpolated variant:
    the continuous rank [p/100 * total] is located in its bucket and the
    value interpolated between the bucket's lower and upper bounds.
    Smoother and tighter than {!percentile} (live views want it), but
    real-valued and not one-sided.  [0.] on an empty distribution. *)
val percentile_interp : (int * int) list -> float -> float
