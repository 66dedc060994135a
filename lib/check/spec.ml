(* Spec strings: [name] or [name:k1=v1,k2=v2] ({!Rrfd.Spec_syntax}).
   Parameters are small non-negative ints. *)
let parse spec = Rrfd.Spec_syntax.(parse Int spec)

(* Builds the entry [name] with [build param], where [param key ~default]
   reads one parameter, and rejects the spec if it gives a key that
   [build] never read: the entry does not take it. *)
let with_params ~what name params build =
  let read = ref [] in
  let param key ~default =
    read := key :: !read;
    match List.assoc_opt key params with Some v -> v | None -> default
  in
  Result.bind (build param) (fun entry ->
      match List.find_opt (fun (k, _) -> not (List.mem k !read)) params with
      | Some (k, _) -> Error (Printf.sprintf "%s %s: unknown parameter %S" what name k)
      | None -> Ok entry)

let predicate_names =
  "true, no-self, not-all-faulty, crash-closure, someone-seen, antisym, \
   omission:f=_, crash:f=_, async:f=_, async-mixed:f=_,t=_, shm:f=_, \
   shm-alt:f=_, snapshot:f=_, kset:k=_, eq5, detector-s, byz-round:f=_, \
   honest-kernel:k=_"

let predicate spec =
  Result.bind (parse spec) (fun (name, params) ->
      with_params ~what:"predicate" name params @@ fun param ->
      let f () = param "f" ~default:1
      and k () = param "k" ~default:2
      and t () = param "t" ~default:2 in
      match name with
      | "true" | "always" -> Ok Rrfd.Predicate.always
      | "no-self" -> Ok Rrfd.Predicate.no_self_suspicion
      | "not-all-faulty" -> Ok Rrfd.Predicate.not_all_faulty
      | "crash-closure" -> Ok Rrfd.Predicate.crash_closure
      | "someone-seen" -> Ok Rrfd.Predicate.someone_seen_by_all
      | "antisym" -> Ok Rrfd.Predicate.antisymmetric_misses
      | "omission" -> Ok (Rrfd.Predicate.omission ~f:(f ()))
      | "crash" -> Ok (Rrfd.Predicate.crash ~f:(f ()))
      | "async" -> Ok (Rrfd.Predicate.async_resilient ~f:(f ()))
      | "async-mixed" -> Ok (Rrfd.Predicate.async_mixed ~f:(f ()) ~t:(t ()))
      | "shm" -> Ok (Rrfd.Predicate.shared_memory ~f:(f ()))
      | "shm-alt" -> Ok (Rrfd.Predicate.shared_memory_alt ~f:(f ()))
      | "snapshot" -> Ok (Rrfd.Predicate.snapshot ~f:(f ()))
      | "kset" -> Ok (Rrfd.Predicate.k_set ~k:(k ()))
      | "eq5" | "identical" -> Ok Rrfd.Predicate.identical_views
      | "detector-s" | "dets" -> Ok Rrfd.Predicate.detector_s
      (* Byzantine-aware (E24): judge the fused silent∪lied history from
         Heard_of.to_byz_history rather than a plain heard-of complement. *)
      | "byz-round" -> Ok (Rrfd.Predicate.byzantine_round_bound ~f:(f ()))
      | "honest-kernel" -> Ok (Rrfd.Predicate.eventual_honest_kernel ~k:(k ()))
      | _ ->
        Error
          (Printf.sprintf "unknown predicate %S, expected one of: %s" spec
             predicate_names))

let generator_names =
  "omission:f=_, crash:f=_, async:f=_, async-mixed:f=_,t=_, shm:f=_, \
   snapshot:f=_, kset:k=_, antisym:f=_, eq5, detector-s"

let generator spec =
  Result.bind (parse spec) (fun (name, params) ->
      with_params ~what:"generator" name params @@ fun param ->
      let f () = param "f" ~default:1
      and k () = param "k" ~default:2
      and t () = param "t" ~default:2 in
      let open Rrfd.Detector_gen in
      match name with
      | "omission" ->
        let f = f () in
        Ok ((fun rng ~n -> omission rng ~n ~f), Rrfd.Predicate.omission ~f)
      | "crash" ->
        let f = f () in
        Ok ((fun rng ~n -> crash rng ~n ~f), Rrfd.Predicate.crash ~f)
      | "async" ->
        let f = f () in
        Ok ((fun rng ~n -> async rng ~n ~f), Rrfd.Predicate.async_resilient ~f)
      | "async-mixed" ->
        let f = f () and t = t () in
        Ok
          ( (fun rng ~n -> async_mixed rng ~n ~f ~t),
            Rrfd.Predicate.async_mixed ~f ~t )
      | "shm" ->
        let f = f () in
        Ok
          ( (fun rng ~n -> shared_memory rng ~n ~f),
            Rrfd.Predicate.shared_memory ~f )
      | "snapshot" | "iis" ->
        let f = f () in
        Ok ((fun rng ~n -> iis rng ~n ~f), Rrfd.Predicate.snapshot ~f)
      | "kset" ->
        let k = k () in
        Ok ((fun rng ~n -> k_set rng ~n ~k), Rrfd.Predicate.k_set ~k)
      | "antisym" ->
        let f = f () in
        Ok
          ( (fun rng ~n -> antisymmetric rng ~n ~f),
            Rrfd.Predicate.(
              conj (async_resilient ~f) antisymmetric_misses) )
      | "eq5" | "identical" ->
        Ok ((fun rng ~n -> identical rng ~n), Rrfd.Predicate.identical_views)
      | "detector-s" | "dets" ->
        Ok ((fun rng ~n -> detector_s rng ~n), Rrfd.Predicate.detector_s)
      | _ ->
        Error
          (Printf.sprintf "unknown generator %S, expected one of: %s" spec
             generator_names))

(* SUT names are the protocol catalog's: registering a protocol there is
   all it takes to make it checkable. *)
let sut_names = String.concat ", " Protocols.Catalog.names

let sut spec =
  match Protocols.Catalog.find spec with
  | Some p -> Ok (Sut.of_protocol p)
  | None ->
    Error (Printf.sprintf "unknown sut %S, expected one of: %s" spec sut_names)

let property_names =
  "agreement, k-agreement:k=_, validity, termination, adopt-commit"

let property spec =
  Result.bind (parse spec) (fun (name, params) ->
      with_params ~what:"property" name params @@ fun param ->
      match name with
      | "agreement" -> Ok Property.agreement
      | "k-agreement" ->
        Ok (Property.k_agreement ~k:(param "k" ~default:2))
      | "validity" -> Ok Property.validity
      | "termination" -> Ok Property.termination
      | "adopt-commit" -> Ok Property.adopt_commit_coherence
      | _ ->
        Error
          (Printf.sprintf "unknown property %S, expected one of: %s" spec
             property_names))

(* Adversary policies share the same [name:k=v,...] grammar; their
   vocabulary lives in Msgnet.Adversary (msgnet cannot depend on check)
   and this is its front door for the CLI and artifacts. *)
let adversary_names = Msgnet.Adversary.spec_names

let adversary spec = Msgnet.Adversary.of_spec spec

let default_properties s =
  match Protocols.Catalog.find (Sut.name s) with
  | Some p -> Protocols.Catalog.properties p
  | None -> [ "termination"; "validity"; "agreement" ]
