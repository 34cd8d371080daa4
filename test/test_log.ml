(** Structured-log suite: severity filtering, the disabled path's
    zero-allocation contract, request-id tagging (explicit and ambient via
    {!Chow_obs.Context}), field rendering, and the multi-domain merge
    producing timestamp-ordered JSON lines. *)

module Log = Chow_obs.Log
module Context = Chow_obs.Context
module Json = Chow_obs.Json

(* parse every line of a log dump, failing the test on anything that is
   not a JSON object with the reserved ts/level/event fields *)
let parsed_lines txt =
  String.split_on_char '\n' txt
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match Json.parse line with
         | Error msg -> Alcotest.failf "log line %S does not parse: %s" line msg
         | Ok j ->
             (match Json.member "ts" j with
             | Some (Json.Num _) -> ()
             | _ -> Alcotest.failf "log line %S has no numeric ts" line);
             (match Json.member "level" j with
             | Some (Json.Str s) when Log.level_of_string s <> None -> ()
             | _ -> Alcotest.failf "log line %S has no known level" line);
             (match Json.member "event" j with
             | Some (Json.Str _) -> ()
             | _ -> Alcotest.failf "log line %S has no event" line);
             j)

let event j =
  match Json.member "event" j with
  | Some (Json.Str s) -> s
  | _ -> assert false (* parsed_lines already checked *)

let with_log level f =
  Log.reset ();
  Log.enable level;
  Fun.protect
    ~finally:(fun () ->
      Log.disable ();
      Log.reset ())
    (fun () ->
      f ();
      let lines = parsed_lines (Log.to_string ()) in
      Log.reset ();
      lines)

let test_level_filtering () =
  let lines =
    with_log Log.Warn (fun () ->
        Alcotest.(check bool) "error kept at Warn" true (Log.is_on Log.Error);
        Alcotest.(check bool) "warn kept at Warn" true (Log.is_on Log.Warn);
        Alcotest.(check bool) "info dropped at Warn" false (Log.is_on Log.Info);
        Alcotest.(check bool)
          "debug dropped at Warn" false (Log.is_on Log.Debug);
        Log.error "e" [];
        Log.warn "w" [];
        Log.info "i" [];
        Log.debug "d" [])
  in
  Alcotest.(check (list string))
    "only error and warn survive" [ "e"; "w" ] (List.map event lines)

let test_disabled_allocates_nothing () =
  Log.reset ();
  Log.disable ();
  Alcotest.(check bool) "disabled" false (Log.is_on Log.Error);
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    (* static strings and the empty field list: nothing for the disabled
       path to box *)
    Log.log Log.Debug ~req:(-1) "ev" [];
    Log.debug "ev" []
  done;
  let allocated = Gc.minor_words () -. before in
  (* the counter reads themselves box a couple of floats; the calls must
     contribute nothing — any per-call word would show up [iters]-fold *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled calls allocate nothing (saw %.0f words)"
       allocated)
    true
    (allocated < float_of_int iters /. 100.);
  Alcotest.(check string) "and buffer nothing" "" (Log.to_string ())

let test_request_id_tagging () =
  let lines =
    with_log Log.Info (fun () ->
        Log.info ~req:77 "explicit" [];
        Context.set_request 88;
        Log.info "ambient" [];
        Context.clear_request ();
        Log.info "unscoped" [])
  in
  let req_of name =
    match List.find_opt (fun j -> event j = name) lines with
    | None -> Alcotest.failf "no %s line" name
    | Some j -> Json.member "req" j
  in
  (match req_of "explicit" with
  | Some (Json.Num f) -> Alcotest.(check int) "explicit id" 77 (int_of_float f)
  | _ -> Alcotest.fail "explicit line lost its req");
  (match req_of "ambient" with
  | Some (Json.Num f) ->
      Alcotest.(check int) "ambient id from Context" 88 (int_of_float f)
  | _ -> Alcotest.fail "ambient line lost its req");
  match req_of "unscoped" with
  | None -> ()
  | Some _ -> Alcotest.fail "unscoped line must carry no req key"

let test_field_rendering () =
  let lines =
    with_log Log.Info (fun () ->
        Log.info "fields"
          [
            ("s", Log.Str "a\"b\\c\nd");
            ("i", Log.Int (-5));
            ("b", Log.Bool true);
          ])
  in
  match lines with
  | [ j ] ->
      (match Json.member "s" j with
      | Some (Json.Str s) ->
          Alcotest.(check string) "string field escaped" "a\"b\\c\nd" s
      | _ -> Alcotest.fail "string field lost");
      (match Json.member "i" j with
      | Some (Json.Num f) ->
          Alcotest.(check int) "int field" (-5) (int_of_float f)
      | _ -> Alcotest.fail "int field lost");
      (match Json.member "b" j with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "bool field lost")
  | l -> Alcotest.failf "expected exactly one line, got %d" (List.length l)

let test_multi_domain_merge () =
  let per_domain = 50 in
  let lines =
    with_log Log.Debug (fun () ->
        let domains =
          List.map
            (fun name ->
              Domain.spawn (fun () ->
                  for i = 1 to per_domain do
                    Log.debug name [ ("i", Log.Int i) ]
                  done))
            [ "dom:a"; "dom:b"; "dom:c" ]
        in
        for i = 1 to per_domain do
          Log.debug "dom:main" [ ("i", Log.Int i) ]
        done;
        List.iter Domain.join domains)
  in
  Alcotest.(check int)
    "every domain's lines merged" (4 * per_domain) (List.length lines);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s contributed all its lines" name)
        per_domain
        (List.length (List.filter (fun j -> event j = name) lines)))
    [ "dom:a"; "dom:b"; "dom:c"; "dom:main" ];
  (* the merge is timestamp-ordered *)
  let ts =
    List.map
      (fun j ->
        match Json.member "ts" j with
        | Some (Json.Num f) -> f
        | _ -> assert false)
      lines
  in
  ignore
    (List.fold_left
       (fun prev t ->
         if t < prev then Alcotest.fail "merged lines out of timestamp order";
         t)
       neg_infinity ts)

(* the daemon's acceptor and connection readers are sys-threads of one
   domain, so they share that domain's buffer: concurrent appends must
   neither tear the buffer (out-of-bounds on a racing grow) nor lose a
   line *)
let test_threads_share_buffer () =
  let threads = 4 and per_thread = 100_000 in
  let failed = Atomic.make None in
  let path = Filename.temp_file "chow88-log-threads" ".jsonl" in
  Log.reset ();
  Log.enable Log.Info;
  Fun.protect
    ~finally:(fun () ->
      Log.disable ();
      Log.reset ();
      Sys.remove path)
    (fun () ->
      List.init threads (fun t ->
          Thread.create
            (fun () ->
              try
                for i = 1 to per_thread do
                  Log.info "thread" [ ("t", Log.Int t); ("i", Log.Int i) ]
                done
              with e -> Atomic.set failed (Some (Printexc.to_string e)))
            ())
      |> List.iter Thread.join;
      Option.iter (Alcotest.failf "a logging thread raised %s")
        (Atomic.get failed);
      Log.write_file path;
      let ic = open_in path in
      let rec count n =
        match input_line ic with _ -> count (n + 1) | exception End_of_file -> n
      in
      let lines = count 0 in
      close_in ic;
      Alcotest.(check int) "every line kept" (threads * per_thread) lines)

let suite =
  ( "log",
    [
      Alcotest.test_case "severity threshold filters" `Quick
        test_level_filtering;
      Alcotest.test_case "disabled path allocates nothing" `Quick
        test_disabled_allocates_nothing;
      Alcotest.test_case "request ids: explicit, ambient, unscoped" `Quick
        test_request_id_tagging;
      Alcotest.test_case "fields render as typed JSON" `Quick
        test_field_rendering;
      Alcotest.test_case "multi-domain lines merge in ts order" `Quick
        test_multi_domain_merge;
      Alcotest.test_case "sys-threads of one domain lose nothing" `Quick
        test_threads_share_buffer;
    ] )
