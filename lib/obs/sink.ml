type t = {
  emit : Event.t -> unit;
  close : unit -> unit;
  sync : unit -> int option;
}

let no_sync () = None

let make ?(close = fun () -> ()) ?(sync = no_sync) emit = { emit; close; sync }

let null = make (fun _ -> ())

let deliver t ev = t.emit ev

let close t = t.close ()

let sync t = t.sync ()

let jsonl oc =
  make
    ~close:(fun () -> flush oc)
    ~sync:(fun () ->
      flush oc;
      (try Unix.fsync (Unix.descr_of_out_channel oc)
       with Unix.Unix_error _ | Sys_error _ -> ());
      Some (pos_out oc))
    (fun ev ->
      output_string oc (Event.to_jsonl ev);
      output_char oc '\n')

let ring ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Obs.Sink.ring: capacity must be positive";
  let slots = Array.make capacity None in
  let next = ref 0 in
  let stored = ref 0 in
  let emit ev =
    slots.(!next) <- Some ev;
    next := (!next + 1) mod capacity;
    if !stored < capacity then incr stored
  in
  let events () =
    (* oldest first: start after the most recent write when full *)
    let start = if !stored < capacity then 0 else !next in
    List.init !stored (fun i ->
        match slots.((start + i) mod capacity) with
        | Some ev -> ev
        | None -> assert false)
  in
  (make emit, events)
