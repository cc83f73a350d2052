type path_step = { label : string; state_repr : string }

type result = {
  spec_name : string;
  state_count : int;
  transition_count : int;
  max_depth : int;
  terminal_count : int;
  deadlock_count : int;
  violation : (string * path_step list) option;
  capped : bool;
  live : bool option;
  stuck_example : string option;
}

module Make (S : Ba_model.Spec_types.SPEC) = struct
  let render state = Format.asprintf "%a" S.pp state

  (* Spec states nest endpoints and channels inside records. The default
     [Hashtbl.hash] stops after 10 integers, often before it reaches the
     channels, so states that differ only in transit collide. On a
     2-vCPU Xeon, [ba_check --spec crash-epochs -w 2 --limit 4
     --crashes 2] (80k states) takes 19 s with the default hash and 2 s
     with this one. *)
  module States = Hashtbl.Make (struct
    type t = S.state

    let equal = ( = )
    let hash = Hashtbl.hash_param 40 256
  end)

  (* Shortest path from the initial state, following parent pointers. *)
  let path_to parents states id =
    let rec walk id acc =
      match Hashtbl.find_opt parents id with
      | None -> { label = "<init>"; state_repr = render (Hashtbl.find states id) } :: acc
      | Some (pid, label) ->
          walk pid ({ label; state_repr = render (Hashtbl.find states id) } :: acc)
    in
    walk id []

  let run ?(max_states = 2_000_000) ?(check_liveness = true) () =
    let ids : int States.t = States.create 4096 in
    let states : (int, S.state) Hashtbl.t = Hashtbl.create 4096 in
    let parents : (int, int * string) Hashtbl.t = Hashtbl.create 4096 in
    let depth : (int, int) Hashtbl.t = Hashtbl.create 4096 in
    (* Protocol-only (loss-free) forward edges, for the liveness pass. *)
    let proto_edges : (int, int list) Hashtbl.t = Hashtbl.create 4096 in
    let queue = Queue.create () in
    let transition_count = ref 0 in
    let terminal_count = ref 0 in
    let deadlock_count = ref 0 in
    let max_depth = ref 0 in
    let violation = ref None in
    let capped = ref false in
    let intern state =
      match States.find_opt ids state with
      | Some id -> (id, false)
      | None ->
          let id = States.length ids in
          States.add ids state id;
          Hashtbl.add states id state;
          (id, true)
    in
    let record_violation id msg = violation := Some (msg, path_to parents states id) in
    let id0, _ = intern S.initial in
    Hashtbl.add depth id0 0;
    (match S.check S.initial with None -> () | Some msg -> record_violation id0 msg);
    Queue.add id0 queue;
    while !violation = None && not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      let state = Hashtbl.find states id in
      let d = Hashtbl.find depth id in
      if d > !max_depth then max_depth := d;
      if S.terminal state then incr terminal_count;
      let transitions = S.transitions state in
      if transitions = [] && not (S.terminal state) then incr deadlock_count;
      let proto_targets = ref [] in
      List.iter
        (fun { Ba_model.Spec_types.label; kind; target } ->
          if !violation = None then begin
            incr transition_count;
            (* The paper's progress measure only ever increases along
               protocol actions; catch any transcription error. *)
            (if kind = Ba_model.Spec_types.Protocol && S.measure target < S.measure state then
               record_violation id
                 (Printf.sprintf "measure decreased from %d to %d on %s" (S.measure state)
                    (S.measure target) label));
            if !violation = None then begin
              let tid, fresh = intern target in
              if kind = Ba_model.Spec_types.Protocol then proto_targets := tid :: !proto_targets;
              if fresh then begin
                if States.length ids > max_states then capped := true
                else begin
                  Hashtbl.add parents tid (id, label);
                  Hashtbl.add depth tid (d + 1);
                  match S.check target with
                  | Some msg -> record_violation tid msg
                  | None -> Queue.add tid queue
                end
              end
            end
          end)
        transitions;
      Hashtbl.add proto_edges id !proto_targets
    done;
    let live, stuck_example =
      if (not check_liveness) || !violation <> None || !capped then (None, None)
      else begin
        (* Backward reachability from terminal states over loss-free
           edges: a state outside the backward-reachable set can never
           complete the transfer even if no further message is lost. *)
        let n = Hashtbl.length states in
        let reverse : (int, int list) Hashtbl.t = Hashtbl.create n in
        Hashtbl.iter
          (fun src targets ->
            List.iter
              (fun dst ->
                Hashtbl.replace reverse dst (src :: Option.value ~default:[] (Hashtbl.find_opt reverse dst)))
              targets)
          proto_edges;
        let reach_terminal = Array.make n false in
        let back = Queue.create () in
        Hashtbl.iter
          (fun id state ->
            if S.terminal state then begin
              reach_terminal.(id) <- true;
              Queue.add id back
            end)
          states;
        while not (Queue.is_empty back) do
          let id = Queue.pop back in
          List.iter
            (fun pred ->
              if not reach_terminal.(pred) then begin
                reach_terminal.(pred) <- true;
                Queue.add pred back
              end)
            (Option.value ~default:[] (Hashtbl.find_opt reverse id))
        done;
        let stuck = ref None in
        Array.iteri
          (fun id ok -> if (not ok) && !stuck = None then stuck := Some (render (Hashtbl.find states id)))
          reach_terminal;
        (Some (!stuck = None), !stuck)
      end
    in
    {
      spec_name = S.name;
      state_count = Hashtbl.length states;
      transition_count = !transition_count;
      max_depth = !max_depth;
      terminal_count = !terminal_count;
      deadlock_count = !deadlock_count;
      violation = !violation;
      capped = !capped;
      live;
      stuck_example;
    }
end

let pp_result ppf r =
  Format.fprintf ppf "spec: %s@\nstates: %d  transitions: %d  max depth: %d@\n" r.spec_name
    r.state_count r.transition_count r.max_depth;
  Format.fprintf ppf "terminal states: %d  deadlocks: %d  capped: %b@\n" r.terminal_count
    r.deadlock_count r.capped;
  (match r.live with
  | Some true -> Format.fprintf ppf "progress: every state can complete loss-free@\n"
  | Some false ->
      Format.fprintf ppf "progress: VIOLATED — stuck state:@\n  %s@\n"
        (Option.value ~default:"?" r.stuck_example)
  | None -> Format.fprintf ppf "progress: not checked@\n");
  match r.violation with
  | None when r.capped ->
      Format.fprintf ppf "invariant: no violation in the explored states (capped: not a proof)@\n"
  | None -> Format.fprintf ppf "invariant: HOLDS at every reachable state@\n"
  | Some (msg, path) ->
      Format.fprintf ppf "invariant: VIOLATED — %s@\ncounterexample (%d steps):@\n" msg
        (List.length path - 1);
      List.iter
        (fun { label; state_repr } -> Format.fprintf ppf "  %-28s %s@\n" label state_repr)
        path

let run_spec ?max_states ?check_liveness (module S : Ba_model.Spec_types.SPEC) =
  let module E = Make (S) in
  E.run ?max_states ?check_liveness ()
