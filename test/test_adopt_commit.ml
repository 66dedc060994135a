(* The adopt-commit protocol: pure functions, the RRFD two-round version,
   and the register version (Section 4.2). *)

module Ac = Rrfd.Adopt_commit

(* A round's view from an all-heard slot array, minus [late]. *)
let view ?(late = []) slots =
  let faulty = Rrfd.Pset.of_list late in
  Rrfd.View.of_option_array ~faulty
    (Array.mapi
       (fun j m -> if Rrfd.Pset.mem j faulty then None else Some m)
       slots)

let propose ?late ~own slots =
  Ac.propose ~equal:Int.equal ~me:0 ~own (view ?late slots) Fun.id

let resolve ?late ~own ~own_vote slots =
  Ac.resolve ~equal:Int.equal ~me:0 ~own ~own_vote (view ?late slots) Fun.id

let propose_commit_on_unanimity () =
  (match propose ~own:5 [| 5; 5; 5 |] with
  | Ac.Commit_vote 5 -> ()
  | _ -> Alcotest.fail "expected commit vote 5");
  (match propose ~own:5 [| 5; 6 |] with
  | Ac.Adopt_vote 5 -> ()
  | _ -> Alcotest.fail "expected adopt vote of own value");
  (* Marked late, p0 still counts its own value. *)
  match propose ~late:[ 0 ] ~own:5 [| 5; 6; 6 |] with
  | Ac.Adopt_vote 5 -> ()
  | _ -> Alcotest.fail "a late process still sees its own value"

let resolve_cases () =
  let c9 = Ac.Commit_vote 9 in
  (match resolve ~own:1 ~own_vote:c9 [| c9; c9 |] with
  | Ac.Commit 9 -> ()
  | _ -> Alcotest.fail "unanimous commits commit");
  (match resolve ~own:1 ~own_vote:c9 [| c9; Ac.Adopt_vote 2 |] with
  | Ac.Adopt 9 -> ()
  | _ -> Alcotest.fail "mixed with a commit adopts the committed value");
  (match
     resolve ~own:1 ~own_vote:(Ac.Adopt_vote 2)
       [| Ac.Adopt_vote 2; Ac.Adopt_vote 3 |]
   with
  | Ac.Adopt 1 -> ()
  | _ -> Alcotest.fail "no commit adopts own");
  (* The own vote is read first when late: its commit is the one adopted. *)
  match
    resolve ~late:[ 0 ] ~own:1 ~own_vote:(Ac.Commit_vote 4)
      [| Ac.Adopt_vote 0; Ac.Commit_vote 7 |]
  with
  | Ac.Adopt 4 -> ()
  | _ -> Alcotest.fail "a late process reads its own vote first"

(* The single-pass rules against the list-based ones they replaced, over
   random views with and without self-suspicion: the same vote and the
   same outcome, values and commit/adopt alike. *)
let rules_match_list_oracle =
  let module O = Test_support.Oracle.Adopt_commit in
  QCheck.Test.make ~name:"single-pass adopt-commit rules equal the list-based rules"
    ~count:2000
    QCheck.(pair (Test_support.int_range 1 9) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let me = Dsim.Rng.int rng n in
      let value () = Dsim.Rng.int rng 3 in
      let vote () =
        if Dsim.Rng.bool rng then Ac.Commit_vote (value ()) else Ac.Adopt_vote (value ())
      in
      (* Any proper fault set, the receiver's own slot included half the time. *)
      let faulty =
        let d = Rrfd.Pset.random_subset rng (Rrfd.Pset.full n) in
        let d = if Dsim.Rng.bool rng then Rrfd.Pset.remove me d else d in
        if Rrfd.Pset.cardinal d = n then Rrfd.Pset.remove me d else d
      in
      let view_of slots =
        Rrfd.View.of_option_array ~faulty
          (Array.mapi
             (fun j m -> if Rrfd.Pset.mem j faulty then None else Some m)
             slots)
      in
      let values = Array.init n (fun _ -> value ()) in
      let votes = Array.init n (fun _ -> vote ()) in
      let own = value () and own_vote = vote () in
      let vview = view_of values and wview = view_of votes in
      let proposed = Ac.propose ~equal:Int.equal ~me ~own vview Fun.id in
      let expected_vote = O.propose ~own ~seen:(O.seen ~me ~own vview Fun.id) in
      let resolved = Ac.resolve ~equal:Int.equal ~me ~own ~own_vote wview Fun.id in
      let expected =
        O.resolve ~own ~seen:(O.seen ~me ~own:own_vote wview Fun.id)
      in
      if proposed <> expected_vote then
        QCheck.Test.fail_reportf "n=%d me=%d faulty=%s: propose differs" n me
          (Rrfd.Pset.to_string faulty)
      else if resolved <> expected then
        QCheck.Test.fail_reportf "n=%d me=%d faulty=%s: resolve differs" n me
          (Rrfd.Pset.to_string faulty)
      else true)

let run_rrfd ~n ~seed ~inputs =
  let rng = Dsim.Rng.create seed in
  let detector = Rrfd.Detector_gen.iis rng ~n ~f:(n - 1) in
  let outcome =
    Rrfd.Engine.run ~n
      ~check:(Rrfd.Predicate.snapshot ~f:(n - 1))
      ~algorithm:(Ac.algorithm ~inputs) ~detector ()
  in
  outcome

let rrfd_two_rounds () =
  let outcome = run_rrfd ~n:4 ~seed:7 ~inputs:[| 1; 2; 1; 2 |] in
  Alcotest.(check int) "two rounds" 2 outcome.Rrfd.Substrate.rounds_used;
  Alcotest.(check (option string)) "spec holds" None
    (Ac.check_outcomes ~inputs:[| 1; 2; 1; 2 |] outcome.Rrfd.Substrate.decisions)

let rrfd_property =
  QCheck.Test.make
    ~name:"RRFD adopt-commit meets its spec under snapshot adversaries"
    ~count:500
    QCheck.(
      triple (Test_support.int_range 2 12) (int_bound 100000)
        (Test_support.int_range 1 3))
    (fun (n, seed, universe) ->
      let rng = Dsim.Rng.create (seed * 31) in
      let inputs = Array.init n (fun _ -> Dsim.Rng.int rng universe) in
      let outcome = run_rrfd ~n ~seed ~inputs in
      match outcome.Rrfd.Substrate.violation with
      | Some v -> QCheck.Test.fail_reportf "adversary broke predicate: %s" v
      | None -> (
        match Ac.check_outcomes ~inputs outcome.Rrfd.Substrate.decisions with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason))

let register_version_roundrobin () =
  let inputs = [| 3; 3; 3 |] in
  let r = Shm.Adopt_commit_shm.run ~inputs ~schedule:Shm.Exec.Round_robin in
  Alcotest.(check (option string)) "all commit on agreement" None
    (Ac.check_outcomes ~inputs
       (Array.map Option.some r.Shm.Adopt_commit_shm.outcomes));
  Array.iter
    (fun o ->
      Alcotest.(check bool) "committed" true (Ac.is_commit o);
      Alcotest.(check int) "value 3" 3 (Ac.value_of o))
    r.Shm.Adopt_commit_shm.outcomes

let register_version_solo_first () =
  (* p0 runs to completion before anyone else steps: it must commit. *)
  let inputs = [| 1; 2 |] in
  let solo_prefix = List.init 20 (fun _ -> 0) in
  let r =
    Shm.Adopt_commit_shm.run ~inputs ~schedule:(Shm.Exec.Fixed solo_prefix)
  in
  (match r.Shm.Adopt_commit_shm.outcomes.(0) with
  | Ac.Commit 1 -> ()
  | o ->
    Alcotest.failf "solo process should commit its value, got %a"
      (Ac.pp_outcome Format.pp_print_int)
      o);
  Alcotest.(check (option string)) "agreement carried" None
    (Ac.check_outcomes ~inputs
       (Array.map Option.some r.Shm.Adopt_commit_shm.outcomes))

let register_property =
  QCheck.Test.make
    ~name:"register adopt-commit meets its spec under random interleavings"
    ~count:500
    QCheck.(
      triple (Test_support.int_range 1 10) (int_bound 100000)
        (Test_support.int_range 1 3))
    (fun (n, seed, universe) ->
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun _ -> Dsim.Rng.int rng universe) in
      let r =
        Shm.Adopt_commit_shm.run ~inputs
          ~schedule:(Shm.Exec.Random (Dsim.Rng.split rng))
      in
      match
        Ac.check_outcomes ~inputs
          (Array.map Option.some r.Shm.Adopt_commit_shm.outcomes)
      with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason)

let tests =
  [
    Alcotest.test_case "propose" `Quick propose_commit_on_unanimity;
    Alcotest.test_case "resolve" `Quick resolve_cases;
    Alcotest.test_case "RRFD version, two rounds" `Quick rrfd_two_rounds;
    Alcotest.test_case "register version, round robin" `Quick
      register_version_roundrobin;
    Alcotest.test_case "register version, solo run" `Quick
      register_version_solo_first;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ rules_match_list_oracle; rrfd_property; register_property ]
