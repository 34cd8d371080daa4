(** Tests for the simulator itself: counters, tags, and — critically — the
    register-preservation contract checker, exercised with deliberately
    broken assembly to prove the watchdog bites. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Ir = Chow_ir.Ir
module Sim = Chow_sim.Sim
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline

(* hand-assembled program: main calls f; pc 0/1 is the startup stub *)
let program ~f_body ~preserved =
  let main_body =
    [
      Asm.Binopi (Ir.Sub, Machine.sp, Machine.sp, 1);
      Asm.Sw (Machine.ra, Machine.sp, 0, Asm.Tsave);
      Asm.Li (Machine.s0, 77);
      Asm.Jal_pc (-1) (* patched below *);
      Asm.Print (Machine.s0);
      Asm.Lw (Machine.ra, Machine.sp, 0, Asm.Tsave);
      Asm.Binopi (Ir.Add, Machine.sp, Machine.sp, 1);
      Asm.Jr;
    ]
  in
  let stub = [ Asm.Jal_pc 2; Asm.Halt ] in
  let f_addr = 2 + List.length main_body in
  let main_body =
    List.map
      (function Asm.Jal_pc n when n < 0 -> Asm.Jal_pc f_addr | i -> i)
      main_body
  in
  let code = Array.of_list (stub @ main_body @ f_body) in
  {
    Asm.code;
    entry = 0;
    proc_addrs = [ ("main", 2); ("f", f_addr) ];
    metas =
      [
        (2, { Asm.m_name = "main"; m_preserved = Machine.callee_saved });
        (f_addr, { Asm.m_name = "f"; m_preserved = preserved });
      ];
    data_size = 0;
    data_init = [];
    block_pcs = [];
  }

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
   call) or a memory edge (the top word, either side of a page boundary,
   often a never-written page) and insist the engines still agree —
   including on the exact error message. *)

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
  let kind, inst =
    match int 6 with
    | 0 -> ("divzero", Asm.Binopi (Ir.Div, Machine.t0, Machine.t0, 0))
    | 1 -> ("oob", access (-1 - int 7))
    | 2 -> ("oob-top", access (Machine.mem_words + int 7))
    | 3 -> ("top", access (Machine.mem_words - 1))
    | 4 -> ("page-edge", access ((page * (1 + int 8)) - 1 + int 2))
    | _ -> ("wildcall", Asm.Jal_pc (int (n + 8)))
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
      Alcotest.test_case "diff: division by zero" `Quick
        test_diff_division_by_zero;
      Alcotest.test_case "diff: profile block counts" `Quick
        test_diff_profile_counts;
      QCheck_alcotest.to_alcotest prop_differential;
    ] )
