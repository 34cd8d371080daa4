(** The compile daemon under load: spawn [pawnc serve], drive it with an
    open-loop request schedule over at most two connections, and check
    every reply.

    Open loop: request [i] is due at [start + i / rate] whatever happened
    to earlier ones.  Each connection carries one request at a time
    (the protocol does not tag replies with their request), so when the
    daemon falls behind the backlog builds up in the generator, where it
    shows as lateness; latency is always timed from the due time. *)

module Client = Chow_server.Client
module Protocol = Chow_server.Protocol

let connections = 2

type daemon = { pid : int; socket : string; dir : string }

let live : daemon list ref = ref []

(** [spawn ~pawnc ~dir] starts a daemon with a fresh cache under [dir]
    and waits until it answers a ping. *)
let spawn ~pawnc ~dir =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let log name =
    Unix.openfile (Filename.concat dir name) [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let fo = log "serve.out" and fe = log "serve.err" in
  let pid =
    Unix.create_process pawnc
      [|
        pawnc; "serve"; "--socket"; socket; "--workers"; string_of_int connections;
        "--cache-dir"; Filename.concat dir "cache";
      |]
      Unix.stdin fo fe
  in
  Unix.close fo;
  Unix.close fe;
  let d = { pid; socket; dir } in
  live := d :: !live;
  if not (Client.wait_ready ~timeout_s:30. ~socket_path:socket ()) then
    failwith "pawnc serve did not become ready";
  d

(** Ask the daemon to shut down and reap it; returns its exit code and
    peak resident set in KiB. *)
let stop d =
  (try
     Client.with_connection ~socket_path:d.socket (fun c ->
         ignore (Client.request c Protocol.Shutdown))
   with _ -> Unix.kill d.pid Sys.sigterm);
  let r = Util.wait4 d.pid in
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  r

(** Kill every daemon still running (error paths). *)
let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with _ -> ());
      ignore (try Util.wait4 d.pid with _ -> (0, 0)))
    !live;
  live := []

let compile_req ~id src =
  Protocol.Compile
    {
      id;
      action = Protocol.Build;
      srcs = [ src ];
      o3 = true;
      shrinkwrap = true;
      global_promo = false;
      alloc = "chow";
      fuel = None;
      priority = 0;
    }

let counter name counters = Option.value ~default:0 (List.assoc_opt name counters)

(** One sequential request on its own connection (set-up and checks). *)
let call d req = Client.with_connection ~socket_path:d.socket (fun c -> Client.request c req)

let stats d =
  match call d Protocol.Stats with
  | Protocol.Stats_reply kv -> kv
  | _ -> failwith "Stats request not answered"

(** {2 The open loop} *)

type cls = Hit | Miss

type slot = { unit : int; cls : cls }

type result = {
  slot : slot;
  due : float;
  sent : float;
  recv : float;
  encode_s : float;
  decode_s : float;
  reply : (Protocol.reply, string) Stdlib.result;
}

let latency_ms r = (r.recv -. r.due) *. 1000.
let late_ms r = Float.max 0. ((r.sent -. r.due) *. 1000.)

(** [drive d ~rate ~slots ~src] sends [slots] at [rate] requests per
    second, due times starting now, over [connections] connections;
    [src slot] is the unit text. *)
let drive d ~rate ~slots ~src =
  let n = Array.length slots in
  let results = Array.make n None in
  let next = ref 0 and lock = Mutex.create () in
  let start = Util.now () +. 0.005 in
  let lane () =
    Client.with_connection ~socket_path:d.socket @@ fun c ->
    let fd = Client.fd c in
    let rec loop () =
      let i = Mutex.protect lock (fun () -> let i = !next in incr next; i) in
      if i < n then begin
        let due = start +. (float_of_int i /. rate) in
        let wait = due -. Util.now () in
        if wait > 0. then Unix.sleepf wait;
        let sent = Util.now () in
        let frame = Protocol.encode_request (compile_req ~id:i (src slots.(i))) in
        let encode_s = Util.now () -. sent in
        let r =
          match
            Protocol.write_frame fd frame;
            Protocol.read_frame fd
          with
          | Some payload ->
              let t = Util.now () in
              let reply = Protocol.decode_reply payload in
              let d = Util.now () in
              {
                slot = slots.(i); due; sent; recv = d; encode_s; decode_s = d -. t;
                reply = Ok reply;
              }
          | None ->
              {
                slot = slots.(i); due; sent; recv = Util.now (); encode_s;
                decode_s = 0.; reply = Error "connection closed";
              }
          | exception e ->
              {
                slot = slots.(i); due; sent; recv = Util.now (); encode_s;
                decode_s = 0.; reply = Error (Printexc.to_string e);
              }
        in
        results.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init connections (fun _ -> Thread.create lane ()) in
  List.iter Thread.join threads;
  Array.to_list results |> List.filter_map Fun.id

(** [check ~cold_text r] is [None] when [r] is a correct reply for its
    slot: a [Done] whose per-request counter delta shows the cache
    outcome the slot expects, and, for a hit, the same text as the
    unit's cold build. *)
let check ~cold_text r =
  match r.reply with
  | Error msg -> Some msg
  | Ok (Protocol.Done { text; counters; _ }) -> (
      match r.slot.cls with
      | Hit when counter "cache.hit" counters < 1 -> Some "warm request did not hit the cache"
      | Miss when counter "cache.miss" counters < 1 -> Some "cold request did not miss the cache"
      | Hit when text <> cold_text r.slot.unit -> Some "warm reply differs from the cold reply"
      | Miss when not (String.starts_with ~prefix:"linked 1 units: " text) ->
          Some ("unexpected build reply: " ^ text)
      | _ -> None)
  | Ok Protocol.Busy -> Some "Busy"
  | Ok (Protocol.Error { kind; message }) -> Some (kind ^ ": " ^ message)
  | Ok _ -> Some "unexpected reply"

(** Server-side split of a [Done] reply: queue wait and service, ms. *)
let server_ms r =
  match r.reply with
  | Ok (Protocol.Done { queue_wait_ns; service_ns; _ }) ->
      Some (float_of_int queue_wait_ns /. 1e6, float_of_int service_ns /. 1e6)
  | _ -> None
