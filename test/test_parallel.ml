(** Reentrancy of the compiler across domains.  The compile daemon runs
    [Pipeline] on several worker domains at once, so a compile may depend
    on nothing but its inputs — no global mutable state shared between
    concurrent compiles.  Each case compiles the same program on
    [domains] concurrently running domains and requires the results to
    be bit-identical to a sequential compile: allocation results, usage
    summaries and stats, and the linked image. *)

module Ir = Chow_ir.Ir
module Lower = Chow_frontend.Lower
module Ipra = Chow_core.Ipra
module Alloc = Chow_core.Alloc_types
module Usage = Chow_core.Usage
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Bitset = Chow_support.Bitset
module W = Chow_workloads.Workloads

let domains = 4

(* run [f] on [domains] domains at once, returning every result; shared
   with the profiler and PGO suites *)
let on_domains f =
  List.map Domain.join (List.init domains (fun _ -> Domain.spawn f))

let canon_call_plans plans =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) plans [] |> List.sort compare

let check_result_equal name (a : Alloc.result) (b : Alloc.result) =
  let ok =
    a.Alloc.r_assignment = b.Alloc.r_assignment
    && a.Alloc.r_param_locs = b.Alloc.r_param_locs
    && a.Alloc.r_param_live = b.Alloc.r_param_live
    && a.Alloc.r_contract_saves = b.Alloc.r_contract_saves
    && List.sort compare a.Alloc.r_save_at = List.sort compare b.Alloc.r_save_at
    && List.sort compare a.Alloc.r_restore_at
       = List.sort compare b.Alloc.r_restore_at
    && a.Alloc.r_open = b.Alloc.r_open
    && canon_call_plans a.Alloc.r_call_plans
       = canon_call_plans b.Alloc.r_call_plans
  in
  if not ok then Alcotest.failf "%s: allocation differs across domains" name

let canon_usage (u : Usage.table) =
  Usage.fold
    (fun name (info : Usage.info) acc ->
      (name, Bitset.elements info.Usage.mask, info.Usage.param_locs) :: acc)
    u []
  |> List.sort compare

let allocate src () =
  (* a fresh lowering per run: allocation mutates the procedures *)
  Ipra.allocate_program ~ipra:true ~shrinkwrap:true Machine.full
    (Lower.compile_unit src)

let check_allocation_deterministic name src =
  let base = allocate src () in
  List.iter
    (fun other ->
      Alcotest.(check (list string))
        (name ^ ": result order")
        (List.map fst base.Ipra.results)
        (List.map fst other.Ipra.results);
      List.iter2
        (fun (pn, ra) (_, rb) -> check_result_equal (name ^ "/" ^ pn) ra rb)
        base.Ipra.results other.Ipra.results;
      if not (canon_usage base.Ipra.usage = canon_usage other.Ipra.usage) then
        Alcotest.failf "%s: usage table differs across domains" name;
      if not (base.Ipra.stats = other.Ipra.stats) then
        Alcotest.failf "%s: stats differ across domains" name)
    (on_domains (allocate src))

let test_alloc_deterministic (w : W.t) () =
  check_allocation_deterministic w.W.name w.W.source

let test_alloc_deterministic_random () =
  for seed = 0 to 9 do
    check_allocation_deterministic
      (Printf.sprintf "genprog seed %d" seed)
      (Genprog.generate ~seed ())
  done

(* ----- end-to-end: identical assembly ----- *)

let check_asm_identical name src =
  let compile () =
    Pipeline.program
      (Pipeline.compile_source Config.o3_sw (Pipeline.Src src))
  in
  let base = compile () in
  List.iteri
    (fun i image ->
      if not (image = base) then
        Alcotest.failf "%s: image compiled on domain %d differs" name i)
    (on_domains compile)

let test_asm_identical (w : W.t) () = check_asm_identical w.W.name w.W.source

let test_asm_identical_random () =
  for seed = 0 to 4 do
    check_asm_identical
      (Printf.sprintf "genprog seed %d" seed)
      (Genprog.generate ~seed ())
  done

let big = [ "uopt"; "tex"; "as1"; "upas"; "ccom" ]

let suite =
  ( "parallel",
    [
      Alcotest.test_case "allocation deterministic: random programs" `Quick
        test_alloc_deterministic_random;
      Alcotest.test_case "assembly identical: random programs" `Quick
        test_asm_identical_random;
    ]
    @ List.map
        (fun w ->
          Alcotest.test_case
            ("allocation deterministic: " ^ w.W.name)
            (if List.mem w.W.name big then `Slow else `Quick)
            (test_alloc_deterministic w))
        W.all
    @ List.map
        (fun w ->
          Alcotest.test_case
            ("assembly identical: " ^ w.W.name)
            (if List.mem w.W.name big then `Slow else `Quick)
            (test_asm_identical w))
        W.all )
