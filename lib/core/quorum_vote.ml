(* Two-threshold quorum voting, the round-machine core of the fork
   accountability construction.  See quorum_vote.mli. *)

type msg = Vote of int | Cert of { v : int; quorum : Pset.t } | Idle

type state = {
  threshold : int;
  input : int;
  decided : (int * Pset.t) option;
}

let pp_msg ppf = function
  | Vote v -> Format.fprintf ppf "vote %d" v
  | Cert { v; quorum } ->
      Format.fprintf ppf "cert %d by %s" v (Pset.to_string quorum)
  | Idle -> Format.pp_print_string ppf "idle"

(* Find a value carried by at least [threshold] distinct senders.  Votes
   are keyed by sender position in the view, so duplicated deliveries
   can never inflate a quorum — the same discipline Ct_consensus uses. *)
let scan_quorum ~threshold view =
  let tally = ref [] in
  View.iter
    (fun sender m ->
      match m with
      | Vote v ->
          let senders =
            match List.assoc_opt v !tally with
            | Some s -> s
            | None -> Pset.empty
          in
          tally := (v, Pset.add sender senders) :: List.remove_assoc v !tally
      | Cert _ | Idle -> ())
    view;
  List.find_opt (fun (_, s) -> Pset.cardinal s >= threshold) !tally

let algorithm ~inputs ~f =
  {
    Algorithm.name = "quorum-vote";
    init =
      (fun ~n i ->
        if f < 0 || f >= n then invalid_arg "Quorum_vote: need 0 ≤ f < n";
        { threshold = n - f; input = inputs.(i); decided = None });
    emit =
      (fun s ~round ->
        if round <= 1 then Vote s.input
        else
          match s.decided with
          | Some (v, quorum) -> Cert { v; quorum }
          | None -> Idle);
    deliver =
      (fun s ~round ~view ->
        (* Only the vote round moves the state: certificates are gossip
           for the auditor, never a second chance to decide — a decision
           must rest on a directly observed vote quorum, which is what
           makes forks provable (quorum intersection) instead of
           injectable (a forged certificate convincing a bystander). *)
        if round <> 1 || s.decided <> None then s
        else
          match scan_quorum ~threshold:s.threshold view with
          | Some (v, senders) -> { s with decided = Some (v, senders) }
          | None -> s);
    decide = (fun s -> Option.map fst s.decided);
  }
