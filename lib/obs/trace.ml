(* Process-wide event dispatcher. Instrumentation sites guard with
   [on ()] (a single atomic read when no sink is subscribed) so that
   event construction costs nothing in the default, un-traced
   configuration.

   Domain safety: the sink list lives in an [Atomic.t] so [on ()] stays
   lock-free; subscription changes and event delivery serialize on one
   mutex, so a sink's [emit] is never invoked concurrently (JSONL lines
   from campaigns on different domains cannot interleave mid-line). *)

type subscription = int

let sinks : (subscription * Sink.t) list Atomic.t = Atomic.make []
let lock = Mutex.create ()
let next_id = ref 0

let subscribe sink =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Atomic.set sinks (Atomic.get sinks @ [ (id, sink) ]);
  Mutex.unlock lock;
  id

let unsubscribe id =
  Mutex.lock lock;
  Atomic.set sinks (List.filter (fun (i, _) -> i <> id) (Atomic.get sinks));
  Mutex.unlock lock

let on () = Atomic.get sinks <> []

(* Slot context: the campaign loop brackets each budget slot so that
   events emitted from layers that do not know the slot number (compiler
   driver, difftest) can still be correlated. The context is
   domain-local, so concurrent campaigns on different domains keep
   independent slots. *)

let slot_ctx : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_slot () = Domain.DLS.get slot_ctx

let with_slot slot f =
  let saved = Domain.DLS.get slot_ctx in
  Domain.DLS.set slot_ctx (Some slot);
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot_ctx saved) f

let emit ev =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () -> List.iter (fun (_, s) -> Sink.deliver s ev) (Atomic.get sinks))

let event make = if on () then emit (make ())

let sync () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      List.fold_left
        (fun acc (_, s) ->
          match Sink.sync s with Some _ as p when acc = None -> p | _ -> acc)
        None (Atomic.get sinks))

let with_sink sink f =
  let id = subscribe sink in
  Fun.protect
    ~finally:(fun () ->
      unsubscribe id;
      Sink.close sink)
    f
