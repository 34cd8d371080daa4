(** Tests for the simulator itself: counters, tags, and — critically — the
    register-preservation contract checker, exercised with deliberately
    broken assembly to prove the watchdog bites. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Ir = Chow_ir.Ir
module Sim = Chow_sim.Sim
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline

(* Multi-procedure hand assembly: [link procs] lays out the startup stub,
   then each [(name, preserved, body)] in order, main first.  A body is a
   function of the address table, so it can name another procedure's
   entry ([addr "h"]) in a call, a jump or a loaded address; it is laid out
   once with dummy addresses to measure, then again for real.  Procedures
   with [preserved = None] publish no contract. *)
let link procs =
  let bodies addr = List.map (fun (n, p, body) -> (n, p, body addr)) procs in
  let _, addrs =
    List.fold_left
      (fun (pc, acc) (n, _, body) -> (pc + List.length body, (n, pc) :: acc))
      (2, [])
      (bodies (fun _ -> 0))
  in
  let addr n = List.assoc n addrs in
  let procs = bodies addr in
  {
    Asm.code =
      Array.of_list
        ([ Asm.Jal_pc (addr "main"); Asm.Halt ]
        @ List.concat_map (fun (_, _, b) -> b) procs);
    entry = 0;
    proc_addrs = List.map (fun (n, _, _) -> (n, addr n)) procs;
    metas =
      List.filter_map
        (fun (n, p, _) ->
          Option.map (fun p -> (addr n, { Asm.m_name = n; m_preserved = p })) p)
        procs;
    data_size = 0;
    data_init = [];
    block_pcs = [];
  }

(* a procedure body that saves ra around [insts] *)
let framed insts =
  [
    Asm.Binopi (Ir.Sub, Machine.sp, Machine.sp, 1);
    Asm.Sw (Machine.ra, Machine.sp, 0, Asm.Tsave);
  ]
  @ insts
  @ [
      Asm.Lw (Machine.ra, Machine.sp, 0, Asm.Tsave);
      Asm.Binopi (Ir.Add, Machine.sp, Machine.sp, 1);
      Asm.Jr;
    ]

(* main sets s0, calls f, prints s0 *)
let main_calls_f =
  ( "main",
    Some Machine.callee_saved,
    fun addr ->
      framed
        [ Asm.Li (Machine.s0, 77); Asm.Jal_pc (addr "f"); Asm.Print Machine.s0 ]
  )

(* hand-assembled program: main calls f *)
let program ~f_body ~preserved =
  link [ main_calls_f; ("f", Some preserved, fun _ -> f_body) ]

(* f promises to preserve every callee-saved register; the procedures laid
   out [before] and after it (which publish an empty contract) are where
   the clobber of s0 really happens *)
let clobber_reaches_f ?(before = []) ~f_body others =
  link
    ([ main_calls_f ] @ before
    @ [ ("f", Some Machine.callee_saved, f_body) ]
    @ others)

let test_checker_catches_clobber () =
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.s0, 0); Asm.Jr ]
      ~preserved:Machine.callee_saved
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected contract violation"
  | exception Sim.Runtime_error msg ->
      Alcotest.(check bool) "names the register" true
        (String.length msg > 0
        && String.index_opt msg '$' <> None)

let test_checker_accepts_mask_exempt_clobber () =
  (* same clobber, but f's published contract says s0 may be modified *)
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.s0, 0); Asm.Jr ]
      ~preserved:(List.filter (fun r -> r <> Machine.s0) Machine.callee_saved)
  in
  let o = Sim.run prog in
  Alcotest.(check (list int)) "runs, s0 clobbered visibly" [ 0 ] o.Sim.output

let test_checker_catches_sp_imbalance () =
  let prog =
    program
      ~f_body:
        [ Asm.Binopi (Ir.Sub, Machine.sp, Machine.sp, 3); Asm.Jr ]
      ~preserved:[]
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected sp violation"
  | exception Sim.Runtime_error msg ->
      Alcotest.(check bool) "mentions stack pointer" true
        (String.length msg > 5)

let test_checker_catches_wrong_return () =
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.ra, 1); Asm.Jr ]
      ~preserved:[]
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected return-address violation"
  | exception Sim.Runtime_error _ -> ()

let test_counters () =
  let src =
    {|
var g = 1;
proc f(x) { g = g + x; return g; }
proc main() { print(f(1)); print(f(2)); }
|}
  in
  let c = Pipeline.compile_source Config.baseline (Pipeline.Src src) in
  let o = Pipeline.run c in
  Alcotest.(check (list int)) "output" [ 2; 4 ] o.Sim.output;
  Alcotest.(check int) "three calls (main, f, f)" 3 o.Sim.calls;
  (* g is a global: each f loads it for [g + x], stores it, and loads it
     again for [return g] — globals are not promoted to registers *)
  Alcotest.(check int) "data loads" 4 o.Sim.data_loads;
  Alcotest.(check int) "data stores" 2 o.Sim.data_stores;
  Alcotest.(check bool) "cycles counted" true (o.Sim.cycles > 10)

let test_save_tags_attributed () =
  (* a recursive function must save ra: save traffic appears under the save
     tags, not under scalar-variable traffic *)
  let src =
    {|
proc down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
proc main() { print(down(50)); }
|}
  in
  let o = Pipeline.run (Pipeline.compile_source Config.baseline (Pipeline.Src src)) in
  Alcotest.(check bool) "save loads > 40" true (o.Sim.save_loads > 40);
  Alcotest.(check bool) "save traffic within scalar metric" true
    (o.Sim.scalar_loads >= o.Sim.save_loads)

let test_unlinked_instruction_rejected () =
  let prog =
    {
      Asm.code = [| Asm.Jal "f" |];
      entry = 0;
      proc_addrs = [];
      metas = [];
      data_size = 0;
      data_init = [];
      block_pcs = [];
    }
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected unlinked error"
  | exception Sim.Runtime_error _ -> ()

let test_stack_overflow_detected () =
  let src =
    {|
proc forever(n) { return forever(n + 1); }
proc main() { print(forever(0)); }
|}
  in
  let c = Pipeline.compile_source Config.baseline (Pipeline.Src src) in
  match Pipeline.run c with
  | _ -> Alcotest.fail "expected stack overflow"
  | exception Sim.Runtime_error msg ->
      (* the trap names the executing procedure and pc *)
      let has s = Str.string_match (Str.regexp (".*" ^ Str.quote s)) msg 0 in
      Alcotest.(check bool)
        (Printf.sprintf "names pc and procedure (%s)" msg)
        true
        (has "stack overflow" && has "pc " && has "in forever")

(* ---- differential testing: decoded engine vs. reference engine ------- *)

let capture f = try Ok (f ()) with Sim.Runtime_error m -> Error m

(** Run both engines on the same program and insist on identical outcomes:
    output, cycles, calls, per-tag traffic, per-pc profiles — or the very
    same [Runtime_error] message. *)
let check_engines_agree ?fuel ?profile name prog =
  let decoded = capture (fun () -> Sim.run ?fuel ?profile prog) in
  let reference = capture (fun () -> Sim.run_reference ?fuel ?profile prog) in
  match (decoded, reference) with
  | Ok d, Ok r ->
      Alcotest.(check (list int)) (name ^ ": output") r.Sim.output d.Sim.output;
      Alcotest.(check int) (name ^ ": cycles") r.Sim.cycles d.Sim.cycles;
      Alcotest.(check int) (name ^ ": calls") r.Sim.calls d.Sim.calls;
      Alcotest.(check int) (name ^ ": data loads") r.Sim.data_loads
        d.Sim.data_loads;
      Alcotest.(check int) (name ^ ": data stores") r.Sim.data_stores
        d.Sim.data_stores;
      Alcotest.(check int) (name ^ ": scalar loads") r.Sim.scalar_loads
        d.Sim.scalar_loads;
      Alcotest.(check int) (name ^ ": scalar stores") r.Sim.scalar_stores
        d.Sim.scalar_stores;
      Alcotest.(check int) (name ^ ": save loads") r.Sim.save_loads
        d.Sim.save_loads;
      Alcotest.(check int) (name ^ ": save stores") r.Sim.save_stores
        d.Sim.save_stores;
      Alcotest.(check int) (name ^ ": call-save loads") r.Sim.call_save_loads
        d.Sim.call_save_loads;
      Alcotest.(check int) (name ^ ": call-save stores") r.Sim.call_save_stores
        d.Sim.call_save_stores;
      Alcotest.(check (array int)) (name ^ ": pc counts") r.Sim.pc_counts
        d.Sim.pc_counts
  | Error d, Error r -> Alcotest.(check string) (name ^ ": error") r d
  | Ok _, Error r ->
      Alcotest.failf "%s: decoded succeeded, reference trapped: %s" name r
  | Error d, Ok _ ->
      Alcotest.failf "%s: decoded trapped (%s), reference succeeded" name d

(* The checker snapshots only the registers the callee can write.  Each
   clobber here is on a path f's write set must follow (a callee's callee,
   the return site of a call, an indirect call, a taken branch, a path
   with many branches left to explore, a jump out of f, code an earlier
   walk reached) or made by an instruction it must count (a load).  Each
   must be caught, with the reference engine's exact message. *)
let test_checker_follows_clobber_paths () =
  let h_clobbers =
    ("h", Some [], fun _ -> [ Asm.Li (Machine.s0, 0); Asm.Jr ])
  in
  let cases =
    [
      ( "transitive callee",
        clobber_reaches_f
          ~f_body:(fun addr -> framed [ Asm.Jal_pc (addr "g") ])
          [
            ("g", Some [], fun addr -> framed [ Asm.Jal_pc (addr "h") ]);
            h_clobbers;
          ] );
      ( "after a call returns",
        clobber_reaches_f
          ~f_body:(fun addr ->
            framed [ Asm.Jal_pc (addr "g"); Asm.Li (Machine.s0, 0) ])
          [ ("g", Some [], fun _ -> [ Asm.Jr ]) ] );
      ( "jalr target",
        clobber_reaches_f
          ~f_body:(fun addr ->
            framed [ Asm.Li (Machine.t0, addr "h"); Asm.Jalr Machine.t0 ])
          [ h_clobbers ] );
      ( "branch target",
        clobber_reaches_f
          ~f_body:(fun addr ->
            [
              Asm.B (Ir.Eq, Machine.zero, Machine.zero, addr "f" + 2);
              Asm.Jr;
              Asm.Li (Machine.s0, 0);
              Asm.Jr;
            ])
          [] );
      ( "past a hundred pending branch targets",
        clobber_reaches_f
          ~f_body:(fun addr ->
            let f = addr "f" in
            List.init 100 (fun k ->
                Asm.B (Ir.Ne, Machine.zero, Machine.zero, f + 102 + k))
            @ [ Asm.Li (Machine.s0, 0); Asm.Jr ]
            @ List.init 100 (fun _ -> Asm.Jr))
          [] );
      (* f is the 257th contract, and the walk from the second one ran
         through f's code before f's own walk starts *)
      ( "after 255 other contracts",
        clobber_reaches_f
          ~before:
            (("early", Some [], fun addr -> [ Asm.J (addr "f") ])
            :: List.init 254 (fun k ->
                   (Printf.sprintf "filler%d" k, Some [], fun _ -> [ Asm.Jr ])))
          ~f_body:(fun _ -> [ Asm.Li (Machine.s0, 0); Asm.Jr ])
          [] );
      ( "load",
        clobber_reaches_f
          ~f_body:(fun _ ->
            [ Asm.Lw (Machine.s0, Machine.zero, 0, Asm.Tdata); Asm.Jr ])
          [] );
      ( "jump out of f's range",
        clobber_reaches_f
          ~f_body:(fun addr -> [ Asm.J (addr "tail") ])
          [
            ("g", Some [], fun _ -> [ Asm.Jr ]);
            ("tail", None, fun _ -> [ Asm.Li (Machine.s0, 0); Asm.Jr ]);
          ] );
    ]
  in
  List.iter
    (fun (name, prog) ->
      check_engines_agree name prog;
      match capture (fun () -> Sim.run prog) with
      | Ok _ -> Alcotest.failf "%s: clobber of s0 not caught" name
      | Error msg ->
          Alcotest.(check string)
            (name ^ ": names f and s0")
            "f: clobbered preserved register $s0 (0 <> 77)" msg)
    cases

let test_diff_fuel_exhaustion () =
  let src = "proc main() { var x = 1; while (x == 1) { x = 1; } }" in
  let prog = Pipeline.program (Pipeline.compile_source Config.baseline (Pipeline.Src src)) in
  check_engines_agree ~fuel:100 "fuel" prog;
  match capture (fun () -> Sim.run ~fuel:100 prog) with
  | Ok _ -> Alcotest.fail "expected fuel exhaustion"
  | Error msg ->
      (* satellite fix: the message now names the executing procedure and pc *)
      let has s = Str.string_match (Str.regexp (".*" ^ Str.quote s)) msg 0 in
      Alcotest.(check bool) "names pc and procedure" true
        (has "out of fuel" && has "pc " && has "in main")

(* the decoded engine's page size, in words: accesses either side of a
   multiple of it cross from one page to the next *)
let page = 4096

let test_diff_oob_context () =
  let top = Machine.mem_words in
  let lw off = Asm.Lw (Machine.t0, Machine.zero, off, Asm.Tdata) in
  let sw r off = Asm.Sw (r, Machine.zero, off, Asm.Tdata) in
  let li n = Asm.Li (Machine.x1, n) in
  let print = Asm.Print Machine.t0 in
  (* f's contract is empty, so it may zero s0: main then prints 0 after f
     returns and itself returns with s0 as it found it *)
  let ret = [ Asm.Li (Machine.s0, 0); Asm.Jr ] in
  (* each case is f's body and what the run must print, or [None] for an
     out-of-bounds trap *)
  let cases =
    [
      ("below memory", [ lw (-1) ], None);
      ("load at mem_words", [ lw top ], None);
      ("store at mem_words", [ sw Machine.zero top ], None);
      (* the top word holds main's saved ra: overwrite it, read it back,
         then restore it so main still returns *)
      ( "load and store at mem_words - 1",
        [
          Asm.Lw (Machine.x2, Machine.zero, top - 1, Asm.Tdata);
          li 99;
          sw Machine.x1 (top - 1);
          lw (top - 1);
          print;
          sw Machine.x2 (top - 1);
        ]
        @ ret,
        Some [ 99; 0 ] );
      ( "either side of a page boundary",
        [
          li 11;
          sw Machine.x1 (page - 1);
          li 22;
          sw Machine.x1 page;
          lw (page - 1);
          print;
          lw page;
          print;
        ]
        @ ret,
        Some [ 11; 22; 0 ] );
      ( "never-written page reads 0",
        [ lw ((5 * page) + 17); print ] @ ret,
        Some [ 0; 0 ] );
    ]
  in
  List.iter
    (fun (name, f_body, expect) ->
      let prog = program ~f_body ~preserved:[] in
      check_engines_agree name prog;
      match (capture (fun () -> Sim.run prog), expect) with
      | Ok o, Some out ->
          Alcotest.(check (list int)) (name ^ ": output") out o.Sim.output
      | Error msg, None ->
          let has s = Str.string_match (Str.regexp (".*" ^ Str.quote s)) msg 0 in
          Alcotest.(check bool)
            (name ^ ": names pc and procedure") true
            (has "out of bounds" && has "pc " && has "in f")
      | Ok _, None -> Alcotest.failf "%s: expected out-of-bounds trap" name
      | Error msg, Some _ -> Alcotest.failf "%s: unexpected trap: %s" name msg)
    cases

(* a data initialiser or data segment that does not fit memory is a named
   runtime error in both engines, never an escaping [Invalid_argument] *)
let test_diff_data_outside_memory () =
  let base = program ~f_body:[ Asm.Jr ] ~preserved:[] in
  List.iter
    (fun (name, prog, needle) ->
      check_engines_agree name prog;
      match capture (fun () -> Sim.run prog) with
      | Ok _ -> Alcotest.failf "%s: expected a runtime error" name
      | Error msg ->
          let has s = Str.string_match (Str.regexp (".*" ^ Str.quote s)) msg 0 in
          Alcotest.(check bool) (name ^ ": " ^ msg) true (has needle))
    [
      ( "initialiser at mem_words",
        { base with Asm.data_init = [ (Machine.mem_words, 5) ] },
        "outside memory" );
      ( "negative initialiser",
        { base with Asm.data_init = [ (-1, 5) ] },
        "outside memory" );
      ( "data segment larger than memory",
        { base with Asm.data_size = Machine.mem_words + 1 },
        "does not fit memory" );
    ]

(* Paged memory is materialised lazily: a trivial run must not pay for
   the whole address space.  The reference engine's flat
   memory, [Machine.mem_words] (1 Mi) words per run, shows that the
   measurement sees such an allocation.  [Gc.minor] first, so the
   per-domain counters that [Gc.quick_stat] reads are current. *)
let test_memory_is_lazy () =
  let prog =
    Pipeline.program
      (Pipeline.compile_source Config.baseline
         (Pipeline.Src "proc main() { print(1); }"))
  in
  let major_words run =
    ignore (run prog);
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    ignore (run prog);
    Gc.minor ();
    (Gc.quick_stat ()).Gc.major_words -. before
  in
  let paged = major_words (fun p -> Sim.run p) in
  let flat = major_words (fun p -> Sim.run_reference p) in
  Alcotest.(check bool)
    (Printf.sprintf "flat memory measured (saw %.0f words)" flat)
    true
    (flat >= float_of_int Machine.mem_words);
  Alcotest.(check bool)
    (Printf.sprintf "paged run under 64 Ki major words (saw %.0f)" paged)
    true (paged < 65536.)

let test_diff_wild_call () =
  (* pc 3 is mid-main, not a procedure entry: both engines must call it a
     wild call with the same message *)
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.t0, 3); Asm.Jalr Machine.t0; Asm.Jr ]
      ~preserved:[]
  in
  check_engines_agree "wild call" prog

let test_diff_division_by_zero () =
  let prog =
    program
      ~f_body:
        [
          Asm.Li (Machine.t0, 0);
          Asm.Binop (Ir.Div, Machine.t0, Machine.t0, Machine.t0);
          Asm.Jr;
        ]
      ~preserved:[]
  in
  check_engines_agree "division by zero" prog

let test_diff_profile_counts () =
  (* unit check that the decoded engine's profile = true per-pc counts equal
     the reference's, on a real workload *)
  let w = Option.get (Chow_workloads.Workloads.find "nim") in
  let prog =
    Pipeline.program
      (Pipeline.compile_source Config.o3_sw (Pipeline.Src w.Chow_workloads.Workloads.source))
  in
  let d = Sim.run ~profile:true prog in
  let r = Sim.run_reference ~profile:true prog in
  Alcotest.(check int) "one count per pc"
    (Array.length prog.Chow_codegen.Asm.code)
    (Array.length d.Sim.pc_counts);
  Alcotest.(check (array int)) "profiles equal" r.Sim.pc_counts d.Sim.pc_counts

(* Random differential testing: compile a random Genprog program, run both
   engines on it, then mutate one instruction of the linked image into a
   trap (division by zero, an access below or above memory, or a wild
   call), a memory edge (the top word, either side of a page boundary,
   often a never-written page) or a contract breach (a preserved register
   overwritten, a save-restore turned into a move to an unrelated
   register, a jump anywhere) and insist the engines still agree —
   including on the exact error message.  The reference engine snapshots
   every preserved register at a call, so a register the decoded engine's
   may-write analysis wrongly leaves out of its snapshot shows up as a
   disagreement. *)

let mutate rng (prog : Asm.program) =
  let code = Array.copy prog.Asm.code in
  let n = Array.length code in
  let pc = 2 + Random.State.int rng (max 1 (n - 2)) in
  let int = Random.State.int rng in
  (* a load or a store through the zero register at an absolute address *)
  let access addr =
    if int 2 = 0 then Asm.Lw (Machine.t0, Machine.zero, addr, Asm.Tdata)
    else Asm.Sw (Machine.t0, Machine.zero, addr, Asm.Tdata)
  in
  let pick l = List.nth l (int (List.length l)) in
  let restores =
    List.filter
      (fun pc ->
        match code.(pc) with Asm.Lw (_, _, _, Asm.Tsave) -> true | _ -> false)
      (List.init n Fun.id)
  in
  let pc, kind, inst =
    match int 9 with
    | 0 -> (pc, "divzero", Asm.Binopi (Ir.Div, Machine.t0, Machine.t0, 0))
    | 1 -> (pc, "oob", access (-1 - int 7))
    | 2 -> (pc, "oob-top", access (Machine.mem_words + int 7))
    | 3 -> (pc, "top", access (Machine.mem_words - 1))
    | 4 -> (pc, "page-edge", access ((page * (1 + int 8)) - 1 + int 2))
    | 5 -> (pc, "wildcall", Asm.Jal_pc (int (n + 8)))
    | 6 ->
        let preserved =
          List.concat_map (fun (_, m) -> m.Asm.m_preserved) prog.Asm.metas
        in
        let r =
          pick (if preserved = [] then Machine.callee_saved else preserved)
        in
        (pc, "clobber", Asm.Li (r, int 1000))
    | 7 when restores <> [] ->
        let pc = pick restores in
        let d =
          match code.(pc) with Asm.Lw (d, _, _, _) -> d | _ -> assert false
        in
        let u =
          pick
            (List.filter (( <> ) d) Machine.(caller_saved @ callee_saved))
        in
        (pc, "restore-to-move", Asm.Move (u, d))
    | _ -> (pc, "jump", Asm.J (int n))
  in
  code.(pc) <- inst;
  (Printf.sprintf "%s@%d" kind pc, { prog with Asm.code = code })

let prop_differential =
  QCheck.Test.make ~count:60
    ~name:"decoded and reference engines agree on random programs"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000) ~print:(fun seed ->
         Printf.sprintf "seed %d:\n%s" seed (Genprog.generate ~seed ())))
    (fun seed ->
      let src = Genprog.generate ~seed () in
      let rng = Random.State.make [| seed; 0xd1ff |] in
      let config = if seed mod 2 = 0 then Config.o3_sw else Config.baseline in
      let prog = Pipeline.program (Pipeline.compile_source config (Pipeline.Src src)) in
      check_engines_agree ~profile:true (Printf.sprintf "seed %d" seed) prog;
      (* bounded fuel: a mutation can loop or recurse without limit *)
      let mname, mutated = mutate rng prog in
      check_engines_agree ~profile:true ~fuel:200_000
        (Printf.sprintf "seed %d %s" seed mname)
        mutated;
      true)

let suite =
  ( "sim",
    [
      Alcotest.test_case "checker: callee-saved clobber" `Quick
        test_checker_catches_clobber;
      Alcotest.test_case "checker: mask-exempt clobber ok" `Quick
        test_checker_accepts_mask_exempt_clobber;
      Alcotest.test_case "checker: sp imbalance" `Quick
        test_checker_catches_sp_imbalance;
      Alcotest.test_case "checker: wrong return" `Quick
        test_checker_catches_wrong_return;
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "save-tag attribution" `Quick
        test_save_tags_attributed;
      Alcotest.test_case "unlinked instruction" `Quick
        test_unlinked_instruction_rejected;
      Alcotest.test_case "stack overflow" `Quick test_stack_overflow_detected;
      Alcotest.test_case "diff: fuel exhaustion context" `Quick
        test_diff_fuel_exhaustion;
      Alcotest.test_case "diff: oob context" `Quick test_diff_oob_context;
      Alcotest.test_case "diff: data outside memory" `Quick
        test_diff_data_outside_memory;
      Alcotest.test_case "paged memory: a trivial run allocates little"
        `Quick test_memory_is_lazy;
      Alcotest.test_case "diff: wild call" `Quick test_diff_wild_call;
      Alcotest.test_case "checker: clobbers on every path are caught" `Quick
        test_checker_follows_clobber_paths;
      Alcotest.test_case "diff: division by zero" `Quick
        test_diff_division_by_zero;
      Alcotest.test_case "diff: profile block counts" `Quick
        test_diff_profile_counts;
      QCheck_alcotest.to_alcotest prop_differential;
    ] )
