(** Content-addressed store of compilation-unit artifacts.

    The cache maps a {!key} — the MD5 of the unit's source text, the
    configuration {!Config.fingerprint}, the data-segment base the unit is
    laid out at, and the artifact {!Objfile.format_version} — to a
    serialized {!Objfile.t} under [dir].  Because the key covers
    everything that determines the generated code, a hit can be linked
    without re-running any compilation phase, and a relink of unchanged
    sources is byte-identical to a cold build.

    Robustness: a stored artifact that fails to load ({!Objfile.Corrupt},
    a failed {!Objfile.contract_check}, or an I/O error) is deleted and
    reported as a miss, so corruption silently degrades to recompilation,
    never to a mis-link.

    Observability: [cache.hit], [cache.miss], [cache.evict] and
    [cache.corrupt] counters in the {!Chow_obs.Metrics} registry.

    Concurrency: one lock, held across a whole lookup or store, makes
    hit/miss/evict accounting atomic.  Stores are atomic renames, so
    multiple processes may share one cache directory: the worst
    cross-process race is a duplicated compilation, never a corrupt
    entry.

    Eviction: least-recently-used under [max_entries].  A hit refreshes
    the entry's modification time; eviction removes the oldest entries by
    [(mtime, key)] — the key tie-break makes the order deterministic even
    on filesystems with 1-second mtime granularity. *)

module Objfile := Chow_codegen.Objfile

type t

(** [create ?max_entries ~dir ()] opens (creating [dir] if needed) a
    cache.  [max_entries] bounds the number of stored artifacts; beyond
    it, the least-recently-used entries are evicted on store.  Default:
    unbounded. *)
val create : ?max_entries:int -> dir:string -> unit -> t

val dir : t -> string

(** [key ~config_fp ~source ~data_base] is the content address (an MD5 hex
    string) of a unit compiled from [source] under the configuration
    fingerprinted as [config_fp] with its globals laid out at
    [data_base]. *)
val key : config_fp:string -> source:string -> data_base:int -> string

(** [find t key] loads the artifact stored under [key], or [None] (also on
    corruption, after deleting the offender).  A hit refreshes the entry's
    LRU age. *)
val find : t -> string -> Objfile.t option

(** [store t key art] persists [art] under [key], then enforces
    [max_entries]. *)
val store : t -> string -> Objfile.t -> unit

(** [clear t] removes every stored artifact (not counted as eviction). *)
val clear : t -> unit

(** {2 Footprint}

    The daemon's telemetry gauges [cache.entries] and [cache.bytes] are
    refreshed from here. *)

type stats = {
  s_entries : int;  (** stored artifacts *)
  s_bytes : int;  (** their total on-disk size *)
}

(** [stats t] scans the store (one [readdir] plus one [stat] per entry —
    cheap at working-set sizes, and never takes the lock, so a
    concurrent sampler can't stall compiles).  Entries evicted mid-scan
    just don't count. *)
val stats : t -> stats
