(* Tests for the formal layer: Iset, the invariant (assertions 6-8), the
   protocol specs of Sections II/IV/V, the broken bounded go-back-N, the
   explorer and scripted scenarios.

   These are the mechanised versions of the paper's Section III-V proofs:
   exhaustive exploration replaces the hand proof for small parameters. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Iset = Ba_model.Iset
module Invariant = Ba_model.Invariant
module Explorer = Ba_verify.Explorer
module Scenario = Ba_verify.Scenario

(* ------------------------------------------------------------------ *)
(* Iset *)

let test_iset_basic () =
  let s = Iset.of_list [ 5; 1; 3; 3 ] in
  check (Alcotest.list Alcotest.int) "canonical" [ 1; 3; 5 ] (Iset.elements s);
  check Alcotest.bool "mem" true (Iset.mem 3 s);
  check Alcotest.bool "not mem" false (Iset.mem 2 s);
  check Alcotest.int "cardinal" 3 (Iset.cardinal s);
  check (Alcotest.option Alcotest.int) "max" (Some 5) (Iset.max_elt s)

let test_iset_add_remove () =
  let s = Iset.add 2 (Iset.add 2 Iset.empty) in
  check Alcotest.int "idempotent add" 1 (Iset.cardinal s);
  let s = Iset.remove 2 s in
  check Alcotest.bool "removed" true (Iset.is_empty s);
  check Alcotest.bool "remove absent ok" true (Iset.is_empty (Iset.remove 9 s))

let test_iset_add_range () =
  let s = Iset.add_range ~lo:3 ~hi:6 Iset.empty in
  check (Alcotest.list Alcotest.int) "range" [ 3; 4; 5; 6 ] (Iset.elements s);
  check Alcotest.bool "empty range" true (Iset.is_empty (Iset.add_range ~lo:5 ~hi:4 Iset.empty))

let test_iset_structural_equality () =
  let a = Iset.of_list [ 1; 2; 3 ] and b = Iset.add 3 (Iset.add 1 (Iset.add 2 Iset.empty)) in
  check Alcotest.bool "canonical equality" true (a = b)

(* ------------------------------------------------------------------ *)
(* Invariant: craft views that satisfy / violate each assertion. *)

let base_view =
  {
    Invariant.w = 2;
    na = 1;
    ns = 3;
    nr = 2;
    vr = 2;
    ackd = (fun m -> m < 1);
    rcvd = (fun m -> m < 2);
    sr_count = (fun _ -> 0);
    rs_count = (fun _ -> 0);
    horizon = 8;
  }

let test_invariant_holds_on_consistent_view () =
  check (Alcotest.option Alcotest.string) "all hold" None (Invariant.check base_view)

let test_assertion_6_violations () =
  let bad = { base_view with na = 3 } in
  (match Invariant.assertion_6 bad with
  | Some msg -> check Alcotest.bool "names 6" true (String.length msg > 0 && msg.[0] = '6')
  | None -> Alcotest.fail "expected violation of 6");
  let too_wide = { base_view with ns = 4 } in
  check Alcotest.bool "window overflow caught" true (Invariant.assertion_6 too_wide <> None)

let test_assertion_7_violations () =
  let not_acked_below_na = { base_view with ackd = (fun _ -> false) } in
  check Alcotest.bool "missing ackd below na" true
    (Invariant.assertion_7 not_acked_below_na <> None);
  let acked_at_na = { base_view with ackd = (fun m -> m <= 1) } in
  check Alcotest.bool "ackd[na] forbidden" true (Invariant.assertion_7 acked_at_na <> None);
  let rcvd_beyond_ns = { base_view with rcvd = (fun m -> m < 2 || m = 5) } in
  check Alcotest.bool "rcvd beyond ns" true (Invariant.assertion_7 rcvd_beyond_ns <> None);
  let hole_below_vr = { base_view with rcvd = (fun m -> m = 1) } in
  check Alcotest.bool "hole below vr" true (Invariant.assertion_7 hole_below_vr <> None)

let test_assertion_8_violations () =
  let double_copy = { base_view with sr_count = (fun m -> if m = 2 then 2 else 0) } in
  check Alcotest.bool "two copies" true (Invariant.assertion_8 double_copy <> None);
  let data_and_ack = {
    base_view with
    sr_count = (fun m -> if m = 1 then 1 else 0);
    rs_count = (fun m -> if m = 1 then 1 else 0);
  } in
  check Alcotest.bool "data + covering ack" true (Invariant.assertion_8 data_and_ack <> None);
  let unsent_in_transit = { base_view with sr_count = (fun m -> if m = 5 then 1 else 0) } in
  check Alcotest.bool "unsent data in transit" true (Invariant.assertion_8 unsent_in_transit <> None);
  let acked_in_transit = { base_view with sr_count = (fun m -> if m = 0 then 1 else 0) } in
  check Alcotest.bool "acked data in transit" true (Invariant.assertion_8 acked_in_transit <> None);
  let ack_beyond_nr = { base_view with rs_count = (fun m -> if m = 2 then 1 else 0) } in
  check Alcotest.bool "ack covers unaccepted" true (Invariant.assertion_8 ack_beyond_nr <> None);
  let valid_dup_data = { base_view with sr_count = (fun m -> if m = 1 then 1 else 0) } in
  check (Alcotest.option Alcotest.string) "legal in-transit data" None
    (Invariant.assertion_8 valid_dup_data)

(* ------------------------------------------------------------------ *)
(* Crash–restart spec: the naive restart's two failure symptoms, and the
   epoch handshake's self-stabilization proof (safety in every state,
   assertions 6-8 in every stabilized state, progress from every state). *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let crash_spec ~epochs ~victims ?(max_crashes = 1) ?(w = 1) ?n ?(limit = 2) () =
  Ba_model.Ba_spec_crash.default ~w ?n ~limit ~epochs ~max_crashes ~victims ()

let test_crash_naive_receiver_duplicates () =
  let r = Explorer.run_spec ~max_states:500_000 (crash_spec ~epochs:false ~victims:`Receiver ()) in
  match r.Explorer.violation with
  | Some (msg, path) ->
      check Alcotest.bool "duplicate delivery named" true (contains ~needle:"duplicate delivery" msg);
      check Alcotest.bool "counterexample nonempty" true (List.length path > 1)
  | None -> Alcotest.fail "naive receiver restart should deliver a duplicate"

let test_crash_naive_sender_phantom () =
  let r = Explorer.run_spec ~max_states:500_000 (crash_spec ~epochs:false ~victims:`Sender ()) in
  match r.Explorer.violation with
  | Some (msg, _) ->
      check Alcotest.bool "phantom delivery named" true (contains ~needle:"phantom delivery" msg)
  | None -> Alcotest.fail "naive sender restart should deliver a phantom payload"

let assert_crash_verified name ~victims ?max_crashes ?w ?n ?limit () =
  let r =
    Explorer.run_spec ~max_states:500_000
      (crash_spec ~epochs:true ~victims ?max_crashes ?w ?n ?limit ())
  in
  (match r.Explorer.violation with
  | None -> ()
  | Some (msg, _) -> Alcotest.failf "%s: unexpected violation: %s" name msg);
  check Alcotest.bool (name ^ " not capped") false r.Explorer.capped;
  check (Alcotest.option Alcotest.bool) (name ^ " live") (Some true) r.Explorer.live

let test_crash_epochs_safe_and_live () =
  assert_crash_verified "epochs w=1 c=1" ~victims:`Both ();
  assert_crash_verified "epochs w=1 c=2" ~victims:`Both ~max_crashes:2 ()

let test_crash_epochs_safe_and_live_w2 () =
  assert_crash_verified "epochs w=2 c=1" ~victims:`Both ~w:2 ~limit:3 ()

(* ------------------------------------------------------------------ *)
(* Explorer on the paper's protocols. *)

let run_spec ?(max_states = 500_000) spec = Explorer.run_spec ~max_states spec

(* The paper's sections as kernel parameters: II is the base, IV swaps
   in action 2′, V adds a modulus and VI a lead (with n = 2 * lead). *)
module Kernel = Ba_model.Ba_kernel

let ii ~w ~limit = { Kernel.w; lead = None; n = None; limit; timer = Whole_channel }
let iv ~w ~limit = { (ii ~w ~limit) with timer = Per_message }
let v ~w ~n ~limit = { (ii ~w ~limit) with n = Some n }
let vi ~w ~lead ~limit = { (iv ~w ~limit) with lead = Some lead; n = Some (2 * lead) }

let assert_verified name (r : Explorer.result) =
  (match r.Explorer.violation with
  | None -> ()
  | Some (msg, _) -> Alcotest.failf "%s: unexpected violation: %s" name msg);
  check Alcotest.bool (name ^ " not capped") false r.Explorer.capped;
  check Alcotest.int (name ^ " deadlock-free") 0 r.Explorer.deadlock_count;
  check (Alcotest.option Alcotest.bool) (name ^ " live") (Some true) r.Explorer.live;
  check Alcotest.bool (name ^ " completes") true (r.Explorer.terminal_count > 0)

let test_section2_verified_small () =
  assert_verified "II w=1" (run_spec (Kernel.spec (ii ~w:1 ~limit:3)))

let test_section2_verified () =
  assert_verified "II w=2" (run_spec (Kernel.spec (ii ~w:2 ~limit:4)))

let test_section2_verified_w3 () =
  assert_verified "II w=3" (run_spec (Kernel.spec (ii ~w:3 ~limit:5)))

let test_section4_verified () =
  assert_verified "IV w=2" (run_spec (Kernel.spec (iv ~w:2 ~limit:4)))

let test_section4_more_reachable_states () =
  (* Action 2' strictly generalises action 2, so the Section IV system
     reaches at least as many states. *)
  let r2 = run_spec (Kernel.spec (ii ~w:2 ~limit:4)) in
  let r4 = run_spec (Kernel.spec (iv ~w:2 ~limit:4)) in
  check Alcotest.bool "IV superset of II" true
    (r4.Explorer.state_count >= r2.Explorer.state_count)

let test_section5_verified_with_2w () =
  assert_verified "V n=2w" (run_spec (Kernel.spec (v ~w:2 ~n:4 ~limit:4)))

let test_section5_equals_section2 () =
  (* With n = 2w the modulo encoding is transparent: the finite-number
     system is isomorphic to the unbounded one, so the reachable state
     counts coincide. *)
  let unbounded = run_spec (Kernel.spec (ii ~w:2 ~limit:4)) in
  let finite = run_spec (Kernel.spec (v ~w:2 ~n:4 ~limit:4)) in
  check Alcotest.int "same state count" unbounded.Explorer.state_count
    finite.Explorer.state_count;
  check Alcotest.int "same transition count" unbounded.Explorer.transition_count
    finite.Explorer.transition_count

let test_section5_n_too_small_fails () =
  let r = run_spec (Kernel.spec (v ~w:2 ~n:3 ~limit:6)) in
  match r.Explorer.violation with
  | Some (msg, path) ->
      check Alcotest.bool "reconstruction error" true
        (String.length msg >= 14 && String.sub msg 0 14 = "reconstruction");
      check Alcotest.bool "counterexample nonempty" true (List.length path > 1)
  | None -> Alcotest.fail "expected a violation with n = 2w - 1"

let test_section5_n_larger_than_2w_ok () =
  assert_verified "V n=3w" (run_spec (Kernel.spec (v ~w:2 ~n:6 ~limit:4)))

let test_section5_bounded_storage_verified () =
  assert_verified "V-bounded w=2" (run_spec (Ba_model.Ba_spec_bounded.default ~w:2 ~limit:4 ()))

let test_section5_bounded_storage_isomorphic () =
  (* The full refinement chain II -> V -> V-with-bounded-storage is
     state-for-state isomorphic. *)
  let unbounded = run_spec (Kernel.spec (ii ~w:2 ~limit:4)) in
  let bounded = run_spec (Ba_model.Ba_spec_bounded.default ~w:2 ~limit:4 ()) in
  check Alcotest.int "same states" unbounded.Explorer.state_count bounded.Explorer.state_count;
  check Alcotest.int "same transitions" unbounded.Explorer.transition_count
    bounded.Explorer.transition_count

let test_section5_bounded_rejects_bad_modulus () =
  Alcotest.check_raises "w does not divide n"
    (Invalid_argument "Ba_spec_bounded: n must be a positive multiple of w") (fun () ->
      ignore (Ba_model.Ba_spec_bounded.default ~w:2 ~n:5 ~limit:4 ()))

(* Random walks probe windows far beyond exhaustive reach: apply random
   enabled transitions and require the invariant at every step. *)
let random_walk_preserves_invariant (module S : Ba_model.Spec_types.SPEC) ~seed ~steps =
  let rng = Ba_util.Rng.create seed in
  let rec go state k =
    if k >= steps then true
    else begin
      match S.check state with
      | Some msg -> Alcotest.failf "%s: invariant broke on a walk: %s" S.name msg
      | None -> (
          match S.transitions state with
          | [] -> true
          | ts ->
              let { Ba_model.Spec_types.target; _ } =
                List.nth ts (Ba_util.Rng.int rng (List.length ts))
              in
              go target (k + 1))
    end
  in
  go S.initial 0

let prop_walk_section2_w5 =
  QCheck.Test.make ~name:"Section II invariant holds on random walks (w=5)" ~count:40
    (Arb.int_range 1 1_000_000)
    (fun seed ->
      random_walk_preserves_invariant (Kernel.spec (ii ~w:5 ~limit:12)) ~seed ~steps:400)

let prop_walk_section4_w4 =
  QCheck.Test.make ~name:"Section IV invariant holds on random walks (w=4)" ~count:40
    (Arb.int_range 1 1_000_000)
    (fun seed ->
      random_walk_preserves_invariant (Kernel.spec (iv ~w:4 ~limit:10)) ~seed ~steps:400)

let prop_walk_bounded_w4 =
  QCheck.Test.make ~name:"bounded-storage refinement holds on random walks (w=4)" ~count:40
    (Arb.int_range 1 1_000_000)
    (fun seed ->
      let module S = Ba_model.Ba_spec_bounded.Make (struct
        let w = 4
        let n = 8
        let limit = 10
      end) in
      random_walk_preserves_invariant (module S) ~seed ~steps:400)

let test_reuse_spec_verified () =
  assert_verified "VI reuse w=2 lead=4"
    (run_spec (Kernel.spec (vi ~w:2 ~lead:4 ~limit:5)))

let test_reuse_spec_degenerates_to_section4 () =
  (* With lead = w the reuse rule is the ordinary window: the system is
     the Section IV protocol, state for state. *)
  let reuse = run_spec (Kernel.spec (vi ~w:2 ~lead:2 ~limit:4)) in
  let base = run_spec (Kernel.spec (iv ~w:2 ~limit:4)) in
  check Alcotest.int "same states" base.Explorer.state_count reuse.Explorer.state_count;
  check Alcotest.int "same transitions" base.Explorer.transition_count
    reuse.Explorer.transition_count

let test_reuse_spec_reaches_beyond_classic_window () =
  (* A lead larger than w must add genuinely new behaviours. *)
  let reuse = run_spec (Kernel.spec (vi ~w:2 ~lead:4 ~limit:4)) in
  let base = run_spec (Kernel.spec (iv ~w:2 ~limit:4)) in
  check Alcotest.bool "strictly more states" true
    (reuse.Explorer.state_count > base.Explorer.state_count)

module Reuse_w2 = Kernel.Spec (struct
  let params = vi ~w:2 ~lead:4 ~limit:6
end)

module Reuse_scenario = Scenario.Make (Reuse_w2)

let test_reuse_scenario_runs_ahead () =
  (* The paper's Section VI situation: a block ack is lost, recovery
     re-acknowledges only part of the outstanding range, and the sender
     reuses the freed budget to run more than w ahead of na. *)
  let script =
    [
      "send(0"; "send(1";
      "recv_data(w0"; "recv_data(w1";
      "advance_vr(0"; "advance_vr(1"; "send_ack(0,1";
      "lose_ack(0,1";
      "timeout(0)";
      "recv_data(w0";  (* duplicate of 0 triggers a singleton re-ack *)
      "recv_ack(w0";
      (* Budget freed: send 2, get it acknowledged (message 1's ack is
         still lost, so na stays at 1), then send 3 — the flight band is
         now [1, 4), wider than the classic w = 2 window. *)
      "send(2";
      "recv_data(w2"; "advance_vr(2"; "send_ack(2,2"; "recv_ack(w2";
      "send(3";
    ]
  in
  let outcome = Reuse_scenario.replay script in
  (match outcome.Ba_verify.Scenario.failed_at with
  | None -> ()
  | Some (i, wanted) -> Alcotest.failf "reuse scenario stuck at %d wanting %s" i wanted);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "no violation" None outcome.Ba_verify.Scenario.first_violation;
  match Reuse_scenario.final_state script with
  | Some s ->
      check Alcotest.int "na advanced past 0 only" 1 s.Kernel.na;
      check Alcotest.int "ns ran ahead" 4 s.Kernel.ns;
      check Alcotest.bool "flight band exceeds the classic window" true
        (s.Kernel.ns - s.Kernel.na > 2)
  | None -> Alcotest.fail "reuse scenario should apply"

let test_gbn_bounded_unsafe () =
  let r = run_spec (Ba_model.Gbn_bounded_spec.default ~w:2 ~limit:6 ()) in
  match r.Explorer.violation with
  | Some (msg, path) ->
      check Alcotest.bool "found quickly" true (List.length path <= 12);
      check Alcotest.bool "meaningful message" true (String.length msg > 0)
  | None -> Alcotest.fail "expected bounded go-back-N to violate safety under reorder"

let test_gbn_larger_n_still_unsafe () =
  (* Increasing the modulus delays but does not remove the failure while
     reorder is possible. *)
  let r = run_spec ~max_states:1_500_000 (Ba_model.Gbn_bounded_spec.default ~w:2 ~n:4 ~limit:8 ()) in
  check Alcotest.bool "still violated or capped" true
    (r.Explorer.violation <> None || r.Explorer.capped)

let test_explorer_limit_zero () =
  (* A zero-message transfer is trivially verified: one state, terminal. *)
  let r = run_spec (Kernel.spec (ii ~w:2 ~limit:0)) in
  check Alcotest.int "single state" 1 r.Explorer.state_count;
  check Alcotest.int "terminal" 1 r.Explorer.terminal_count;
  check (Alcotest.option Alcotest.bool) "live" (Some true) r.Explorer.live

let test_explorer_cap () =
  let r = Explorer.run_spec ~max_states:10 (Kernel.spec (ii ~w:2 ~limit:4)) in
  check Alcotest.bool "capped" true r.Explorer.capped;
  check (Alcotest.option Alcotest.bool) "liveness skipped" None r.Explorer.live;
  let report = Format.asprintf "%a" Explorer.pp_result r in
  check Alcotest.bool "not reported as a proof" false (contains ~needle:"HOLDS" report);
  check Alcotest.bool "says it is not a proof" true (contains ~needle:"not a proof" report)

(* A deliberately broken spec: deadlocks and fails liveness. *)
module Stuck_spec = struct
  type state = int

  let name = "stuck-spec"
  let initial = 0

  (* 0 -> 1 -> 2 (dead end, non-terminal); terminal is 9, reachable only
     from 0. *)
  let transitions s =
    let step target = { Ba_model.Spec_types.label = Printf.sprintf "go%d" target;
                        kind = Ba_model.Spec_types.Protocol; target } in
    match s with 0 -> [ step 1; step 9 ] | 1 -> [ step 2 ] | _ -> []

  let check _ = None
  let terminal s = s = 9
  let measure s = s
  let pp = Format.pp_print_int
end

let test_explorer_detects_deadlock_and_nonlive () =
  let module E = Explorer.Make (Stuck_spec) in
  let r = E.run () in
  check Alcotest.int "one dead end" 1 r.Explorer.deadlock_count;
  check (Alcotest.option Alcotest.bool) "not live" (Some false) r.Explorer.live;
  check Alcotest.bool "stuck state reported" true (r.Explorer.stuck_example <> None)

(* A spec whose measure decreases: the explorer must flag it. *)
module Shrinking_spec = struct
  type state = int

  let name = "shrinking-spec"
  let initial = 5

  let transitions s =
    if s > 0 then
      [ { Ba_model.Spec_types.label = "down"; kind = Ba_model.Spec_types.Protocol; target = s - 1 } ]
    else []

  let check _ = None
  let terminal s = s = 0
  let measure s = s
  let pp = Format.pp_print_int
end

let test_explorer_detects_measure_decrease () =
  let module E = Explorer.Make (Shrinking_spec) in
  let r = E.run () in
  match r.Explorer.violation with
  | Some (msg, _) ->
      check Alcotest.bool "mentions measure" true
        (String.length msg >= 7 && String.sub msg 0 7 = "measure")
  | None -> Alcotest.fail "expected measure violation"

(* ------------------------------------------------------------------ *)
(* Graph digests: every spec's full reachable graph, walked breadth-first
   through the SPEC interface alone. Each state contributes its
   transitions' labels, the rendering of every target and the target's
   check result, so any change to a spec's actions, their order, its
   state rendering or its checks changes the digest. The pinned values
   let the specs be restructured with proof that their behaviour did not
   move. *)

let graph_digest (module S : Ba_model.Spec_types.SPEC) =
  let seen = Hashtbl.create 4096 and queue = Queue.create () in
  let show s =
    Format.asprintf "%a|%s" S.pp s (Option.value ~default:"ok" (S.check s))
  in
  let acc = ref (Digest.string (S.name ^ ">" ^ show S.initial)) in
  Hashtbl.add seen S.initial ();
  Queue.add S.initial queue;
  while not (Queue.is_empty queue) do
    let b = Buffer.create 1024 in
    List.iter
      (fun { Ba_model.Spec_types.label; target; _ } ->
        Buffer.add_string b label;
        Buffer.add_char b '>';
        Buffer.add_string b (show target);
        Buffer.add_char b '\n';
        if not (Hashtbl.mem seen target) then begin
          Hashtbl.add seen target ();
          Queue.add target queue
        end)
      (S.transitions (Queue.pop queue));
    acc := Digest.string (!acc ^ Buffer.contents b)
  done;
  (Hashtbl.length seen, Digest.to_hex !acc)

let crash_instance ~epochs =
  Ba_model.Ba_spec_crash.default ~w:1 ~limit:2 ~epochs ~victims:`Both ()

(* Recorded at the commit before the specs were rebuilt on shared
   kernels. *)
let pinned_graphs =
  [
    ("II w=1", Kernel.spec (ii ~w:1 ~limit:3),
     25, "862c30878c9d6a263c647747e92e4cf4");
    ("II w=2", Kernel.spec (ii ~w:2 ~limit:4),
     138, "15d000abf50499af1f1856f5ca080601");
    ("IV", Kernel.spec (iv ~w:2 ~limit:4),
     147, "cfd02a466d270f83bd38095b4aa0806b");
    ("V n=4", Kernel.spec (v ~w:2 ~n:4 ~limit:6),
     224, "319beaa4119c2ce8ea22cf166013612e");
    ("V n=6", Kernel.spec (v ~w:2 ~n:6 ~limit:8),
     310, "dda3332c931b3962e2d20fa436743054");
    ("V n=3", Kernel.spec (v ~w:2 ~n:3 ~limit:6),
     283, "b569bd627099be5615cf91e573a6c5ba");
    ("Vb", Ba_model.Ba_spec_bounded.default ~w:2 ~limit:6 (),
     224, "927129721bfb213391d289932deb7672");
    ("VI lead=4", Kernel.spec (vi ~w:2 ~lead:4 ~limit:10),
     783, "7a0cf18fc5df8ce1d782015012c25228");
    ("VI lead=2", Kernel.spec (vi ~w:2 ~lead:2 ~limit:5),
     193, "beba7944429645fd80fa22d9c084e43b");
    ("pressure", Ba_model.Ba_spec_pressure.default ~w:2 ~limit:3 ~naive:false,
     101, "d6b27a77d0d087c30dae9f09f3d02a0d");
    ("pressure-naive", Ba_model.Ba_spec_pressure.default ~w:2 ~limit:3 ~naive:true,
     143, "1ef2ece69c62197edafaaa16d906cabb");
    ("crash-naive", crash_instance ~epochs:false,
     434, "d74b54312e498be788367f4805686024");
    ("crash-epochs", crash_instance ~epochs:true,
     282, "059e3debc72362df38a59b93150a7bf2");
  ]

let test_graph_digests () =
  let got = List.map (fun (_, spec, _, _) -> graph_digest spec) pinned_graphs in
  List.iter2
    (fun (name, _, states, digest) (got_states, got_digest) ->
      check Alcotest.int (name ^ " states") states got_states;
      check Alcotest.string (name ^ " digest") digest got_digest)
    pinned_graphs got

(* The digests pin the four sections' names; a combination no section
   uses spells out its timer. *)
let test_kernel_names () =
  let name p =
    let (module S : Ba_model.Spec_types.SPEC) = Kernel.spec p in
    S.name
  in
  check Alcotest.string "VI" "blockack-VI-reuse(w=2,lead=4,n=8,limit=6)"
    (name (vi ~w:2 ~lead:4 ~limit:6));
  check Alcotest.string "V with 2'" "blockack-V(w=2,n=4,limit=4,timer=2')"
    (name { (v ~w:2 ~n:4 ~limit:4) with timer = Per_message });
  check Alcotest.string "VI with 2" "blockack-VI-reuse(w=2,lead=4,n=8,limit=6,timer=2)"
    (name { (vi ~w:2 ~lead:4 ~limit:6) with timer = Whole_channel });
  Alcotest.check_raises "spec validates" (Invalid_argument "Ba_kernel: n must be >= 2 * lead")
    (fun () -> ignore (Kernel.spec { (vi ~w:2 ~lead:4 ~limit:6) with n = Some 7 }))

(* ------------------------------------------------------------------ *)
(* Scenarios: the paper's introduction, replayed verbatim. *)

module Gbn_w2 = Ba_model.Gbn_bounded_spec.Make (struct
  let w = 2
  let n = 3
  let limit = 6
end)

module Gbn_scenario = Scenario.Make (Gbn_w2)

let intro_gbn_script =
  (* Send a window, deliver both, then the two cumulative acks arrive in
     the wrong order: the stale ack is decoded as a recent one. *)
  [ "send(0"; "send(1"; "recv_data(0"; "recv_data(1"; "recv_ack(1"; "recv_ack(0" ]

let test_intro_scenario_breaks_gbn () =
  let outcome = Gbn_scenario.replay intro_gbn_script in
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "script completes" None
    outcome.Scenario.failed_at;
  match outcome.Scenario.first_violation with
  | Some (step, _) -> check Alcotest.int "violation at the stale ack" 5 step
  | None -> Alcotest.fail "expected the intro scenario to violate go-back-N safety"

module Ba_w2 = Kernel.Spec (struct
  let params = v ~w:2 ~n:4 ~limit:6
end)

module Ba_scenario = Scenario.Make (Ba_w2)

let intro_blockack_script =
  (* The same interleaving against block acknowledgment: each message is
     acknowledged by its own block, the two acks are reordered, and the
     sender simply waits for the missing block — no confusion. *)
  [
    "send(0"; "send(1";
    "recv_data(w0"; "advance_vr(0"; "send_ack(0,0";
    "recv_data(w1"; "advance_vr(1"; "send_ack(1,1";
    "recv_ack(w1"; (* the LATER ack arrives first *)
    "recv_ack(w0";
  ]

let test_intro_scenario_safe_for_blockack () =
  let outcome = Ba_scenario.replay intro_blockack_script in
  (match outcome.Scenario.failed_at with
  | None -> ()
  | Some (i, wanted) -> Alcotest.failf "script stuck at %d wanting %s" i wanted);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string))
    "no violation" None outcome.Scenario.first_violation;
  match Ba_scenario.final_state intro_blockack_script with
  | Some s ->
      check Alcotest.int "sender caught up" 2 s.Kernel.na;
      check Alcotest.int "receiver accepted both" 2 s.Kernel.nr
  | None -> Alcotest.fail "script should be applicable"

let test_blockack_reordered_ack_blocks_window () =
  (* After only the later ack (1,1) arrives, na must still be 0: the
     sender cannot move past the unacknowledged message 0. *)
  match Ba_scenario.final_state (List.filteri (fun i _ -> i < 9) intro_blockack_script) with
  | Some s ->
      check Alcotest.int "na still 0" 0 s.Kernel.na;
      check Alcotest.int "ns unchanged" 2 s.Kernel.ns
  | None -> Alcotest.fail "prefix script should be applicable"

module Ba_ii = Kernel.Spec (struct
  let params = ii ~w:2 ~limit:2
end)

module Ba_ii_scenario = Scenario.Make (Ba_ii)

let test_progress_case0_recovery_chain () =
  (* Section III-B, Case 0: from a quiescent state (both channels empty,
     na < ns) only the timeout is enabled; executing it starts the chain
     timeout -> recv_data -> ack -> recv_ack that increments na. *)
  let script =
    [
      "send(0";
      "lose_data(0";  (* quiescent with one outstanding message *)
      "timeout->resend(0";
      "recv_data(0";
      "advance_vr(0";
      "send_ack(0,0";
      "recv_ack(0,0";
    ]
  in
  let outcome = Ba_ii_scenario.replay script in
  (match outcome.Scenario.failed_at with
  | None -> ()
  | Some (i, wanted) -> Alcotest.failf "chain stuck at %d wanting %s" i wanted);
  check (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.string)) "no violation" None
    outcome.Scenario.first_violation;
  match Ba_ii_scenario.final_state script with
  | Some s -> check Alcotest.int "na incremented" 1 s.Kernel.na
  | None -> Alcotest.fail "chain should apply"

let test_timeout_disabled_when_channel_nonempty () =
  (* Case 1 of the progress proof: with anything in transit the timeout
     must be disabled (its guard demands both channels empty). *)
  match Ba_ii_scenario.final_state [ "send(0" ] with
  | None -> Alcotest.fail "send should apply"
  | Some s ->
      let labels =
        List.map (fun { Ba_model.Spec_types.label; _ } -> label) (Ba_ii.transitions s)
      in
      check Alcotest.bool "no timeout transition" false
        (List.exists (fun l -> String.length l >= 7 && String.sub l 0 7 = "timeout") labels)

let test_scenario_stuck_reports () =
  let outcome = Gbn_scenario.replay [ "send(0"; "bogus-action" ] in
  match outcome.Scenario.failed_at with
  | Some (1, "bogus-action") -> ()
  | Some (i, l) -> Alcotest.failf "wrong stuck point: %d %s" i l
  | None -> Alcotest.fail "expected the script to get stuck"

let () =
  Alcotest.run "ba_model"
    [
      ( "iset",
        [
          Alcotest.test_case "basic" `Quick test_iset_basic;
          Alcotest.test_case "add/remove" `Quick test_iset_add_remove;
          Alcotest.test_case "add_range" `Quick test_iset_add_range;
          Alcotest.test_case "structural equality" `Quick test_iset_structural_equality;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "consistent view passes" `Quick test_invariant_holds_on_consistent_view;
          Alcotest.test_case "assertion 6 violations" `Quick test_assertion_6_violations;
          Alcotest.test_case "assertion 7 violations" `Quick test_assertion_7_violations;
          Alcotest.test_case "assertion 8 violations" `Quick test_assertion_8_violations;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "Section II verified (w=1)" `Quick test_section2_verified_small;
          Alcotest.test_case "Section II verified (w=2)" `Quick test_section2_verified;
          Alcotest.test_case "Section II verified (w=3)" `Slow test_section2_verified_w3;
          Alcotest.test_case "Section IV verified" `Quick test_section4_verified;
          Alcotest.test_case "Section IV reaches more states" `Quick
            test_section4_more_reachable_states;
          Alcotest.test_case "Section V verified with n=2w" `Quick test_section5_verified_with_2w;
          Alcotest.test_case "Section V isomorphic to Section II" `Quick
            test_section5_equals_section2;
          Alcotest.test_case "Section V fails with n=2w-1" `Quick test_section5_n_too_small_fails;
          Alcotest.test_case "Section V ok with n>2w" `Quick test_section5_n_larger_than_2w_ok;
          Alcotest.test_case "Section V bounded storage verified" `Quick
            test_section5_bounded_storage_verified;
          Alcotest.test_case "Section V bounded storage isomorphic" `Quick
            test_section5_bounded_storage_isomorphic;
          Alcotest.test_case "Section V bounded rejects bad modulus" `Quick
            test_section5_bounded_rejects_bad_modulus;
          Alcotest.test_case "Section VI reuse spec verified" `Quick test_reuse_spec_verified;
          Alcotest.test_case "reuse degenerates to Section IV at lead=w" `Quick
            test_reuse_spec_degenerates_to_section4;
          Alcotest.test_case "reuse reaches beyond the classic window" `Quick
            test_reuse_spec_reaches_beyond_classic_window;
          qcheck prop_walk_section2_w5;
          qcheck prop_walk_section4_w4;
          qcheck prop_walk_bounded_w4;
          Alcotest.test_case "bounded go-back-N unsafe" `Quick test_gbn_bounded_unsafe;
          Alcotest.test_case "bounded go-back-N unsafe at larger n" `Slow
            test_gbn_larger_n_still_unsafe;
          Alcotest.test_case "limit 0 trivially verified" `Quick test_explorer_limit_zero;
          Alcotest.test_case "cap respected" `Quick test_explorer_cap;
          Alcotest.test_case "deadlock and liveness detection" `Quick
            test_explorer_detects_deadlock_and_nonlive;
          Alcotest.test_case "measure decrease detection" `Quick
            test_explorer_detects_measure_decrease;
        ] );
      ( "crash",
        [
          Alcotest.test_case "naive receiver restart delivers duplicates" `Quick
            test_crash_naive_receiver_duplicates;
          Alcotest.test_case "naive sender restart delivers phantoms" `Quick
            test_crash_naive_sender_phantom;
          Alcotest.test_case "epochs safe and live (w=1)" `Quick test_crash_epochs_safe_and_live;
          Alcotest.test_case "epochs safe and live (w=2)" `Slow
            test_crash_epochs_safe_and_live_w2;
        ] );
      ( "graphs",
        [
          Alcotest.test_case "pinned graph digests" `Quick test_graph_digests;
          Alcotest.test_case "kernel names" `Quick test_kernel_names;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "intro breaks bounded go-back-N" `Quick
            test_intro_scenario_breaks_gbn;
          Alcotest.test_case "intro safe for block ack" `Quick test_intro_scenario_safe_for_blockack;
          Alcotest.test_case "reordered ack blocks window" `Quick
            test_blockack_reordered_ack_blocks_window;
          Alcotest.test_case "reuse scenario runs ahead" `Quick test_reuse_scenario_runs_ahead;
          Alcotest.test_case "progress Case 0 recovery chain" `Quick
            test_progress_case0_recovery_chain;
          Alcotest.test_case "timeout disabled when channel nonempty" `Quick
            test_timeout_disabled_when_channel_nonempty;
          Alcotest.test_case "stuck script reported" `Quick test_scenario_stuck_reports;
        ] );
    ]
