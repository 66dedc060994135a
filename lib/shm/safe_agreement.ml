type cell = { value : int; level : int }

module S = Snapshot.Make (struct
  type t = cell
end)

type result = {
  decisions : int option array;
  stuck : bool array;
  steps : int;
}

let resolve_from ~n snapshot =
  let doorway_open =
    Array.exists
      (function Some { level = 1; _ } -> true | Some _ | None -> false)
      snapshot
  in
  if doorway_open then None
  else
    (* lowest-id level-2 cell, if any *)
    let rec find i =
      if i >= n then None
      else
        match snapshot.(i) with
        | Some { level = 2; value } -> Some value
        | Some _ | None -> find (i + 1)
    in
    find 0

let run ~inputs ~schedule ?stuck_in_doorway () =
  let n = Array.length inputs in
  if n < 1 then invalid_arg "Safe_agreement.run: no processes";
  let stuck =
    match stuck_in_doorway with
    | Some flags ->
      if Array.length flags <> n then
        invalid_arg "Safe_agreement.run: stuck array length mismatch";
      Array.copy flags
    | None -> Array.make n false
  in
  let attempts = 8 * n in
  let decisions = Array.make n None in
  let body ~proc =
    let v = inputs.(proc) in
    S.update ~proc { value = v; level = 1 };
    if not stuck.(proc) then begin
      let snap = S.scan () in
      let someone_committed =
        Array.exists
          (function Some { level = 2; _ } -> true | Some _ | None -> false)
          snap
      in
      S.update ~proc { value = v; level = (if someone_committed then 0 else 2) };
      let rec resolve attempt =
        if attempt < attempts && Option.is_none decisions.(proc) then begin
          (match resolve_from ~n (S.scan ()) with
          | Some value -> decisions.(proc) <- Some value
          | None -> ());
          resolve (attempt + 1)
        end
      in
      resolve 0
    end
  in
  let outcome = S.run ~n ~schedule body in
  { decisions; stuck; steps = outcome.S.steps }
