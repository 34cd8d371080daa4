(** OpenMetrics text exposition of a metrics snapshot.

    Renders a {!Metrics.typed_snapshot} in the OpenMetrics text format
    (the Prometheus exposition dialect): one [# TYPE] line per family,
    counter samples with the [_total] suffix, gauges bare, histograms as
    cumulative [_bucket{le="..."}] rows closed by [le="+Inf"] plus [_sum]
    and [_count], and a final [# EOF] terminator.

    Registry names use dots as separators and an optional ["/item"]
    suffix for per-item series ([sim.proc_cycles/main]).  Neither is
    legal in an OpenMetrics metric name, so the renderer (a) maps every
    character outside [[A-Za-z0-9_:]] to [_] ([server.queue_depth]
    becomes [server_queue_depth]) and (b) turns the part after the first
    [/] into an [item="..."] label with OpenMetrics escaping (backslash,
    double quote and newline escaped) — so per-item series of one family
    share one [# TYPE] and differ only in label. *)

(** [render snap] is the OpenMetrics page for [snap].  Families appear in
    sorted name order; within a family, samples keep the snapshot's
    (sorted) order. *)
val render : Metrics.typed_snapshot -> string

(** [page ()] is [render (Metrics.typed_snapshot ())]: the live page for
    the global registry. *)
val page : unit -> string
