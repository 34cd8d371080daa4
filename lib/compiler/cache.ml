(** Content-addressed artifact store; see the interface for the contract.

    Layout on disk: one [<key>.pawno] file per artifact, directly under
    the cache directory.  The key already is a cryptographic digest of the
    artifact's full provenance, so the store never needs to compare
    sources — existence is correctness, and the artifact's own checksum
    (plus {!Objfile.contract_check}) guards the bytes themselves.

    Concurrency: one lock, held across a [find]'s load, contract check
    and age refresh and across a [store]'s save-plus-eviction, so
    hit/miss/evict accounting is atomic and an eviction scan can never
    unlink an entry out from under a concurrent hit in the same process.
    Eviction scans every entry against the global [max_entries], so the
    bound is exact and the LRU order is global. *)

module Objfile = Chow_codegen.Objfile
module Metrics = Chow_obs.Metrics
module Log = Chow_obs.Log
module Flight = Chow_obs.Flight

let m_hit = Metrics.counter "cache.hit"
let m_miss = Metrics.counter "cache.miss"
let m_evict = Metrics.counter "cache.evict"
let m_corrupt = Metrics.counter "cache.corrupt"

type t = {
  dir : string;
  max_entries : int option;
  lock : Mutex.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let create ?max_entries ~dir () =
  mkdir_p dir;
  { dir; max_entries; lock = Mutex.create () }

let dir t = t.dir

let key ~config_fp ~source ~data_base =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "objfile-v%d\x00%s\x00base=%d\x00%s"
          Objfile.format_version config_fp data_base source))

let path_of t key = Filename.concat t.dir (key ^ ".pawno")

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> [||]
  | names ->
      Array.of_list
        (List.filter
           (fun n -> Filename.check_suffix n ".pawno")
           (Array.to_list names))

type stats = { s_entries : int; s_bytes : int }

(* one readdir + one stat per artifact; entries racing with concurrent
   eviction may vanish between the two, and simply don't count *)
let stats t =
  Array.fold_left
    (fun acc name ->
      match Unix.stat (Filename.concat t.dir name) with
      | exception Unix.Unix_error _ -> acc
      | st ->
          {
            s_entries = acc.s_entries + 1;
            s_bytes = acc.s_bytes + st.Unix.st_size;
          })
    { s_entries = 0; s_bytes = 0 }
    (entries t)

let find t key =
  let path = path_of t key in
  Mutex.protect t.lock (fun () ->
      if not (Sys.file_exists path) then begin
        Metrics.incr m_miss;
        if Flight.is_on () then Flight.record ~detail:key "cache-miss";
        Log.debug "cache-miss" [];
        None
      end
      else
        match Objfile.load path with
        | art -> (
            match Objfile.contract_check art with
            | Ok () ->
                Metrics.incr m_hit;
                if Flight.is_on () then Flight.record ~detail:key "cache-hit";
                Log.debug "cache-hit" [];
                (* refresh the entry's age: eviction is least-recently-USED,
                   not least-recently-stored *)
                (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
                Some art
            | Error _ ->
                (* decoded fine but violates the mask contract: stale logic
                   or tampering — drop it and recompile *)
                Metrics.incr m_corrupt;
                Metrics.incr m_miss;
                if Flight.is_on () then
                  Flight.record ~detail:key "cache-corrupt";
                Log.warn "cache-corrupt" [];
                (try Sys.remove path with Sys_error _ -> ());
                None)
        | exception (Objfile.Corrupt _ | Sys_error _) ->
            Metrics.incr m_corrupt;
            Metrics.incr m_miss;
            if Flight.is_on () then Flight.record ~detail:key "cache-corrupt";
            Log.warn "cache-corrupt" [];
            (try Sys.remove path with Sys_error _ -> ());
            None)

(* Caller holds the lock.  Entries are aged by (mtime, key): mtime
   has 1-second granularity on some filesystems, so entries stored within
   the same second tie — the key breaks the tie, making eviction order
   deterministic and reproducible across runs. *)
let evict_locked t =
  match t.max_entries with
  | None -> ()
  | Some max_entries ->
      let names = entries t in
      let over = Array.length names - max_entries in
      if over > 0 then begin
        let aged =
          Array.map
            (fun n ->
              let p = Filename.concat t.dir n in
              let mtime =
                try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.
              in
              (mtime, n, p))
            names
        in
        Array.sort compare aged;
        Array.iteri
          (fun i (_, n, p) ->
            if i < over then begin
              (try Sys.remove p with Sys_error _ -> ());
              Metrics.incr m_evict;
              if Flight.is_on () then Flight.record ~detail:n "cache-evict";
              if Log.is_on Log.Info then
                Log.info "cache-evict" [ ("entry", Log.Str n) ]
            end)
          aged
      end

let store t key art =
  Mutex.protect t.lock (fun () ->
      Objfile.save ~path:(path_of t key) art;
      evict_locked t)

let clear t =
  Array.iter
    (fun n -> try Sys.remove (Filename.concat t.dir n) with Sys_error _ -> ())
    (entries t)
