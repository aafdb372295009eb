(* Tests for lib/obs: JSON encoding, metrics registry, spans, sinks,
   and the end-to-end fixed-seed trace determinism guarantee. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [ ("name", Obs.Json.String "quote\"backslash\\newline\ntab\t");
        ("count", Obs.Json.Int 42);
        ("rate", Obs.Json.Float 0.1);
        ("flag", Obs.Json.Bool true);
        ("nothing", Obs.Json.Null);
        ("items", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5 ]) ]
  in
  let text = Obs.Json.to_string v in
  match Obs.Json.parse text with
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)
  | Ok parsed ->
    check_bool "round-trips" true (parsed = v);
    check_string "stable bytes" text (Obs.Json.to_string parsed)

let test_json_float_repr () =
  List.iter
    (fun f ->
      check_bool
        (Printf.sprintf "%h round-trips" f)
        true
        (float_of_string (Obs.Json.float_repr f) = f))
    [ 0.1; 1.0 /. 3.0; 557.3414196363634; 1e-300; 6.0; 0.0 ];
  (* shortest form preferred over noise digits *)
  check_string "0.1 is short" "0.1" (Obs.Json.float_repr 0.1)

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Obs.Json.parse text with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ text)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_event_jsonl () =
  let ev =
    Obs.Event.Inconsistency_found
      {
        slot = Some 7;
        pair = "gcc, nvcc";
        level = "03_fastmath";
        left_hex = "0x3ff0000000000000";
        right_hex = "0x3ff0000000000001";
        digits = 16;
      }
  in
  let line = Obs.Event.to_jsonl ev in
  match Obs.Json.parse line with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
    check_bool "event field first" true
      (Obs.Json.member "event" json
      = Some (Obs.Json.String "inconsistency_found"));
    check_bool "slot carried" true
      (Obs.Json.member "slot" json = Some (Obs.Json.Int 7))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counter () =
  let c = Obs.Metrics.counter "test.counter_a" in
  let before = Obs.Metrics.counter_value c in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:10 c;
  check_int "incremented" (before + 11) (Obs.Metrics.counter_value c);
  check_bool "same handle on re-request" true
    (Obs.Metrics.counter "test.counter_a" == c)

let test_metrics_gauge () =
  let g = Obs.Metrics.gauge "test.gauge_a" in
  Obs.Metrics.set g 2.5;
  Obs.Metrics.add g 1.5;
  check_bool "gauge value" true (Obs.Metrics.gauge_value g = 4.0)

let test_metrics_histogram () =
  let h = Obs.Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test.hist_a" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 5.0; 100.0 ];
  match
    List.assoc_opt "test.hist_a" (Obs.Metrics.snapshot ())
  with
  | Some (Obs.Metrics.Histogram { counts; count; sum; _ }) ->
    check_int "total observations" 4 count;
    check_bool "sum" true (sum = 106.5);
    (* <=1 gets 0.5 and 1.0; <=10 gets 5.0; overflow gets 100.0 *)
    check_bool "bucket counts" true (counts = [| 2; 1; 1 |])
  | _ -> Alcotest.fail "histogram not in snapshot"

let test_metrics_kind_conflict () =
  let _ = Obs.Metrics.counter "test.conflicted" in
  match Obs.Metrics.gauge "test.conflicted" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind conflict accepted"

let test_metrics_snapshot_sorted_and_rendered () =
  let _ = Obs.Metrics.counter "test.zz_last" in
  let _ = Obs.Metrics.counter "test.aa_first" in
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  check_bool "alphabetical" true (names = List.sort String.compare names);
  let table = Obs.Metrics.render_table () in
  check_bool "mentions instruments" true
    (Util.Text.contains_sub table "test.aa_first"
    && Util.Text.contains_sub table "test.zz_last")

let test_metrics_reset () =
  let c = Obs.Metrics.counter "test.reset_me" in
  Obs.Metrics.incr ~by:5 c;
  Obs.Metrics.reset ();
  check_int "zeroed in place" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  check_int "handle still live" 1 (Obs.Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Span *)

let with_spans f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

let find_span label =
  List.find_opt
    (fun (r : Obs.Span.row) -> r.Obs.Span.label = label)
    (Obs.Span.summary ())

let test_span_nesting_and_aggregation () =
  with_spans @@ fun () ->
  for _ = 1 to 3 do
    Obs.Span.with_span "outer" (fun () ->
        Obs.Span.with_span "inner" (fun () -> Sys.opaque_identity (ignore 0)))
  done;
  match (find_span "outer", find_span "inner") with
  | Some outer, Some inner ->
    check_int "outer count" 3 outer.Obs.Span.count;
    check_int "inner count" 3 inner.Obs.Span.count;
    check_bool "nested time within parent" true
      (inner.Obs.Span.total_s <= outer.Obs.Span.total_s);
    check_bool "max <= total" true
      (outer.Obs.Span.max_s <= outer.Obs.Span.total_s +. 1e-12)
  | _ -> Alcotest.fail "spans not recorded"

let test_span_sim_clock () =
  with_spans @@ fun () ->
  let clock = Util.Sim_clock.create () in
  Obs.Span.with_clock clock (fun () ->
      Obs.Span.with_span "charged" (fun () ->
          Util.Sim_clock.advance clock 12.5));
  match find_span "charged" with
  | Some r -> check_bool "sim delta captured" true (r.Obs.Span.sim_s = 12.5)
  | None -> Alcotest.fail "span not recorded"

let test_span_disabled_records_nothing () =
  Obs.Span.reset ();
  check_bool "disabled by default here" false (Obs.Span.is_enabled ());
  check_int "disabled span returns value" 9
    (Obs.Span.with_span "ghost" (fun () -> 9));
  check_bool "nothing recorded" true (find_span "ghost" = None)

let test_span_records_on_exception () =
  with_spans @@ fun () ->
  (try Obs.Span.with_span "thrower" (fun () -> failwith "boom")
   with Failure _ -> ());
  match find_span "thrower" with
  | Some r -> check_int "recorded despite raise" 1 r.Obs.Span.count
  | None -> Alcotest.fail "span lost on exception"

let test_span_render () =
  with_spans @@ fun () ->
  Obs.Span.with_span "render.me" (fun () -> ());
  check_bool "table mentions label" true
    (Util.Text.contains_sub (Obs.Span.render ()) "render.me")

(* ------------------------------------------------------------------ *)
(* Sinks and trace dispatch *)

let test_ring_sink () =
  let sink, events = Obs.Sink.ring ~capacity:3 () in
  Obs.Trace.with_sink sink (fun () ->
      check_bool "trace on while subscribed" true (Obs.Trace.on ());
      for slot = 1 to 5 do
        Obs.Trace.emit (Obs.Event.Slot_started { slot; strategy = "grammar" })
      done);
  check_bool "trace off after" false (Obs.Trace.on ());
  let slots =
    List.map
      (function
        | Obs.Event.Slot_started { slot; _ } -> slot
        | _ -> Alcotest.fail "unexpected event")
      (events ())
  in
  check_bool "keeps last 3, oldest first" true (slots = [ 3; 4; 5 ])

let test_slot_context () =
  check_bool "no slot outside" true (Obs.Trace.current_slot () = None);
  let inside =
    Obs.Trace.with_slot 4 (fun () ->
        Obs.Trace.with_slot 9 (fun () -> ignore (Obs.Trace.current_slot ()));
        Obs.Trace.current_slot ())
  in
  check_bool "nested restores" true (inside = Some 4);
  check_bool "restored after" true (Obs.Trace.current_slot () = None)

(* ------------------------------------------------------------------ *)
(* End-to-end: campaign tracing *)

let trace_lines ~seed ~budget =
  let path = Filename.temp_file "llm4fp_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
              ignore
                (Harness.Campaign.run ~budget ~seed Harness.Approach.Llm4fp)));
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go []))

let test_campaign_trace_deterministic () =
  let a = trace_lines ~seed:31337 ~budget:8 in
  let b = trace_lines ~seed:31337 ~budget:8 in
  check_bool "two fixed-seed runs trace identically" true (a = b);
  check_bool "different seed differs" false
    (trace_lines ~seed:31338 ~budget:8 = a)

let test_campaign_trace_shape () =
  let lines = trace_lines ~seed:31337 ~budget:8 in
  check_bool "non-trivial stream" true (List.length lines > 8);
  let parsed =
    List.map
      (fun line ->
        match Obs.Json.parse line with
        | Ok json -> json
        | Error msg -> Alcotest.fail (msg ^ ": " ^ line))
      lines
  in
  let kind json =
    match Obs.Json.member "event" json with
    | Some (Obs.Json.String k) -> k
    | _ -> Alcotest.fail "event field missing"
  in
  let kinds = List.map kind parsed in
  check_string "starts with campaign_started" "campaign_started"
    (List.hd kinds);
  check_string "ends with campaign_finished" "campaign_finished"
    (List.nth kinds (List.length kinds - 1));
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (List.mem needle kinds))
    [ "slot_started"; "generated"; "compiled"; "executed"; "compared";
      "slot_finished" ];
  (* slot_started appears exactly once per budget slot *)
  check_int "one slot_started per slot" 8
    (List.length (List.filter (String.equal "slot_started") kinds));
  (* no raw wall-clock anywhere: the only time-like fields are the
     deterministic latency model and simulated clock *)
  List.iter
    (fun json ->
      check_bool "no timestamp field" true
        (Obs.Json.member "timestamp" json = None
        && Obs.Json.member "time" json = None))
    parsed

(* Observers are inert. A bare campaign and the same campaign with a
   trace sink, a flight recorder and a follower domain tailing the live
   trace reach the same outcome; the watched run's trace and archive
   bytes equal an unwatched traced run's; and the follower's streamed
   batches equal a one-shot read of the finished trace. The helper
   writes its trace unbuffered, so the follower polls a file that grows
   mid-line rather than one that appears whole at close. *)
let test_campaign_untraced_still_works () =
  let budget = 12 and seed = 777 in
  let bare = Harness.Campaign.run ~budget ~seed Harness.Approach.Llm4fp in
  let observe ~watch =
    with_tmpdir ~prefix:"llm4fp-inert" @@ fun root ->
    let trace = Filename.concat root "trace.jsonl" in
    (* The follower drains until it has seen the whole finished file:
       [stop] is raised only after the sink's channel is closed, and the
       loop polls once more after observing it. *)
    let stop = Atomic.make false in
    let watcher =
      if not watch then None
      else
        Some
          (Domain.spawn (fun () ->
               let follower = Obs.Follow.create ~path:trace in
               let rec loop acc =
                 let final = Atomic.get stop in
                 let acc =
                   match Obs.Follow.poll follower with
                   | Ok b -> List.rev_append b.Obs.Follow.events acc
                   | Error msg -> failwith ("watcher poll failed: " ^ msg)
                 in
                 if final then List.rev acc
                 else begin
                   Unix.sleepf 0.001;
                   loop acc
                 end
               in
               loop []))
    in
    let outcome, _, arch =
      Fun.protect
        ~finally:(fun () -> Atomic.set stop true)
        (fun () -> run_traced_campaign ~budget ~seed ~root ())
    in
    let streamed = Option.map Domain.join watcher in
    (* Bytes before [read_all]: the unwatched reference must come from a
       file no follower code has opened. *)
    let bytes = read_file trace in
    let archive = archive_bytes arch in
    let one_shot =
      match Obs.Follow.read_all ~path:trace with
      | Ok evs -> evs
      | Error msg -> Alcotest.fail msg
    in
    (outcome, bytes, archive, streamed, one_shot)
  in
  let unwatched, ref_trace, ref_archive, _, _ = observe ~watch:false in
  let watched, trace, archive, streamed, one_shot = observe ~watch:true in
  check_bool "trace non-empty" true (String.length ref_trace > 0);
  check_bool "archive non-empty" true (ref_archive <> []);
  List.iter
    (fun (label, (o : Harness.Campaign.outcome)) ->
      check_bool (label ^ ": same signature as a bare run") true
        (Harness.Campaign.signature o = Harness.Campaign.signature bare);
      check_bool (label ^ ": same programs as a bare run") true
        (List.for_all2 Lang.Ast.equal o.Harness.Campaign.programs
           bare.Harness.Campaign.programs))
    [ ("traced", unwatched); ("watched", watched) ];
  check_bool "watching leaves the trace bytes unchanged" true
    (trace = ref_trace);
  check_bool "watching leaves the archive bytes unchanged" true
    (archive = ref_archive);
  check_bool "streamed events equal a one-shot read" true
    (streamed = Some one_shot)

let test_campaign_metrics_populated () =
  Obs.Metrics.reset ();
  let o = Harness.Campaign.run ~budget:10 ~seed:4242 Harness.Approach.Llm4fp in
  let value name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail (name ^ " missing")
  in
  check_int "slots counted" 10 (value "campaign.slots");
  check_int "llm calls counted" 10 (value "llm.calls");
  check_int "difftest programs = valid programs"
    (List.length o.Harness.Campaign.programs)
    (value "difftest.programs");
  check_int "compiles = 18 per valid program"
    (18 * List.length o.Harness.Campaign.programs)
    (value "compiler.compile.ok" + value "compiler.compile.error")

(* ------------------------------------------------------------------ *)
(* Event decoding: of_json must invert to_json for every kind *)

let sample_events : Obs.Event.t list =
  [ Obs.Event.Campaign_started
      { approach = "LLM4FP"; budget = 16; seed = 42; precision = "fp64" };
    Obs.Event.Slot_started { slot = 1; strategy = "grammar" };
    Obs.Event.Arm_chosen
      { slot = 1; arm = "grow"; pulls = 4; reward = 0.0625; explore = false };
    Obs.Event.Arm_chosen
      { slot = 2; arm = "mutate"; pulls = 0; reward = 0.0; explore = true };
    Obs.Event.Generated
      { slot = Some 1; prompt = "grammar"; latency_s = 4.25;
        prompt_tokens = 120; output_tokens = 260 };
    Obs.Event.Parse_failed { slot = 2; reason = "unexpected token" };
    Obs.Event.Validation_failed { slot = 3; reason = "no fp ops" };
    Obs.Event.Compiled
      { slot = Some 1; config = "gcc -O3 -ffast-math"; ok = true; work = 93 };
    Obs.Event.Executed
      { slot = Some 1; config = "gcc -O3 -ffast-math";
        hex = "3ff0000000000000"; ops = 17 };
    Obs.Event.Compared
      { slot = Some 1; cross = 12; within = 21; inconsistent = 2 };
    Obs.Event.Inconsistency_found
      { slot = Some 1; pair = "gcc, nvcc"; level = "03_fastmath";
        left_hex = "3ff0000000000000"; right_hex = "3ff0000000000001";
        digits = 16 };
    Obs.Event.Case_recorded
      { slot = Some 1; fingerprint = "0123456789abcdef"; kind = "cross" };
    Obs.Event.Coverage_novel
      { slot = 1; kind = "cross"; pair = "gcc, nvcc"; level = "03_fastmath";
        classes = "{Real, Real}"; strategy = "grammar"; cells = 1;
        sim_s = 12.5 };
    Obs.Event.Coverage_hit
      { slot = 1; kind = "cross"; pair = "gcc, nvcc"; level = "03_fastmath";
        classes = "{Real, Real}"; strategy = "grammar"; hits = 2 };
    Obs.Event.Feedback_added { slot = 1; feedback_size = 3 };
    Obs.Event.Slot_finished
      { slot = 1; outcome = "inconsistent"; sim_s = 17.5 };
    Obs.Event.Campaign_finished
      { approach = "LLM4FP"; valid = 14; generation_failures = 2;
        inconsistencies = 9; comparisons = 462; sim_seconds = 138.0;
        llm_seconds = 49.0 } ]

let test_event_of_json_roundtrip () =
  List.iter
    (fun ev ->
      match Obs.Event.of_jsonl (Obs.Event.to_jsonl ev) with
      | Ok decoded ->
        check_bool (Obs.Event.name ev ^ " round-trips") true (decoded = ev)
      | Error msg -> Alcotest.fail (Obs.Event.name ev ^ ": " ^ msg))
    sample_events;
  (* whole-valued floats serialize as integers and must still decode *)
  let ev = Obs.Event.Slot_finished { slot = 1; outcome = "consistent"; sim_s = 6.0 } in
  (match Obs.Event.of_jsonl (Obs.Event.to_jsonl ev) with
  | Ok decoded -> check_bool "integer-rendered float" true (decoded = ev)
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Obs.Event.of_jsonl bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [ {|{"event":"no_such_kind","slot":1}|};
      {|{"event":"slot_started","slot":1}|}  (* missing strategy *);
      {|{"slot":1}|};
      {|not json at all|} ]

let test_event_accessors () =
  check_bool "slot of slot_started" true
    (Obs.Event.slot (Obs.Event.Slot_started { slot = 7; strategy = "mutate" })
    = Some 7);
  check_bool "campaign_started has no slot" true
    (Obs.Event.slot
       (Obs.Event.Campaign_started
          { approach = "a"; budget = 1; seed = 1; precision = "fp64" })
    = None);
  check_bool "config of compiled" true
    (Obs.Event.config
       (Obs.Event.Compiled
          { slot = None; config = "clang -O0"; ok = true; work = 1 })
    = Some "clang -O0");
  List.iter
    (fun ev ->
      check_bool
        (Obs.Event.name ev ^ " has a summary")
        false
        (String.length (Obs.Event.summary ev) = 0))
    sample_events

(* ------------------------------------------------------------------ *)
(* Follow: incremental trace tailing *)

(* with_tmpdir hands out a fresh path without creating it *)
let with_dir f =
  with_tmpdir (fun dir ->
      Unix.mkdir dir 0o755;
      f dir)

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let ev_line slot =
  Obs.Event.to_jsonl (Obs.Event.Slot_started { slot; strategy = "grammar" })

let expect_ok = function
  | Ok (b : Obs.Follow.batch) -> b
  | Error msg -> Alcotest.fail ("poll failed: " ^ msg)

let test_follow_empty_and_missing () =
  with_dir @@ fun dir ->
  let missing = Filename.concat dir "never.jsonl" in
  let f = Obs.Follow.create ~path:missing in
  let b = expect_ok (Obs.Follow.poll f) in
  check_bool "missing file: no events" true (b.Obs.Follow.events = []);
  check_bool "missing file: not rotation" false b.Obs.Follow.rotated;
  (* zero-length file behaves the same *)
  let empty = Filename.concat dir "empty.jsonl" in
  write_lines empty [];
  let f = Obs.Follow.create ~path:empty in
  let b = expect_ok (Obs.Follow.poll f) in
  check_bool "empty file: no events" true (b.Obs.Follow.events = []);
  check_int "offset stays 0" 0 (Obs.Follow.offset f)

let test_follow_partial_final_line () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.jsonl" in
  let l1 = ev_line 1 and l2 = ev_line 2 in
  (* a writer flushed line 1 and half of line 2 *)
  let oc = open_out_bin path in
  output_string oc (l1 ^ "\n");
  output_string oc (String.sub l2 0 (String.length l2 / 2));
  flush oc;
  let f = Obs.Follow.create ~path in
  let b = expect_ok (Obs.Follow.poll f) in
  check_int "only the complete line" 1 (List.length b.Obs.Follow.events);
  check_int "offset at the newline boundary" (String.length l1 + 1)
    (Obs.Follow.offset f);
  (* nothing new: the partial tail is not consumed twice *)
  let b = expect_ok (Obs.Follow.poll f) in
  check_bool "partial line never consumed" true (b.Obs.Follow.events = []);
  (* the writer finishes the line *)
  output_string oc (String.sub l2 (String.length l2 / 2)
                      (String.length l2 - (String.length l2 / 2)));
  output_string oc "\n";
  close_out oc;
  let b = expect_ok (Obs.Follow.poll f) in
  (match b.Obs.Follow.events with
  | [ Obs.Event.Slot_started { slot = 2; _ } ] -> ()
  | _ -> Alcotest.fail "completed line not decoded")

let test_follow_rotation () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.jsonl" in
  write_lines path [ ev_line 1; ev_line 2 ];
  let f = Obs.Follow.create ~path in
  ignore (expect_ok (Obs.Follow.poll f));
  (* the file is replaced by a shorter one: a rotation *)
  write_lines path [ ev_line 9 ];
  let b = expect_ok (Obs.Follow.poll f) in
  check_bool "rotation detected" true b.Obs.Follow.rotated;
  (match b.Obs.Follow.events with
  | [ Obs.Event.Slot_started { slot = 9; _ } ] -> ()
  | _ -> Alcotest.fail "post-rotation events not re-read from the start")

let test_follow_corrupt_line () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.jsonl" in
  write_lines path [ ev_line 1; "this is not an event" ];
  let f = Obs.Follow.create ~path in
  match Obs.Follow.poll f with
  | Ok _ -> Alcotest.fail "corrupt complete line accepted"
  | Error msg ->
    check_bool "error names the file" true (Util.Text.contains_sub msg path)

(* A structurally valid JSON line whose ["event"] tag no decoder knows
   (a trace from a newer writer, say) must fail loudly with full
   provenance — file, line, offset, and the offending tag — never be
   silently skipped. *)
let test_follow_unknown_event_kind () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.jsonl" in
  write_lines path [ ev_line 1; {|{"event":"no_such_kind","slot":2}|} ];
  match Obs.Follow.read_all ~path with
  | Ok _ -> Alcotest.fail "unknown event kind accepted"
  | Error msg ->
    check_bool "error names the file" true (Util.Text.contains_sub msg path);
    check_bool "error names the line" true
      (Util.Text.contains_sub msg "line 2");
    check_bool "error names the offset" true
      (Util.Text.contains_sub msg "offset");
    check_bool "error names the unknown tag" true
      (Util.Text.contains_sub msg {|unknown event kind "no_such_kind"|})

(* Multi-file following tolerates members that do not exist yet: a
   fleet shard's chunk trace appears only when the chunk starts, and
   the supervisor begins following the whole plan up front. A missing
   member must read as an empty batch, never an error (the regression
   this pins down), and start streaming once the file appears. *)
let test_follow_multi_missing_member () =
  with_dir @@ fun dir ->
  let present = Filename.concat dir "chunk-0000.jsonl" in
  let missing = Filename.concat dir "chunk-0001.jsonl" in
  write_lines present [ ev_line 1; ev_line 2 ];
  let m = Obs.Follow.Multi.create ~paths:[ present; missing ] in
  check_bool "paths round-trip" true
    (Obs.Follow.Multi.paths m = [ present; missing ]);
  let batches =
    match Obs.Follow.Multi.poll m with
    | Ok bs -> bs
    | Error msg -> Alcotest.fail ("multi poll with missing member: " ^ msg)
  in
  (match batches with
  | [ (p1, b1); (p2, b2) ] ->
    check_string "present path first" present p1;
    check_int "present events" 2 (List.length b1.Obs.Follow.events);
    check_string "missing path second" missing p2;
    check_bool "missing member is an empty batch" true
      (b2.Obs.Follow.events = []);
    check_bool "missing member is not a rotation" false b2.Obs.Follow.rotated
  | bs -> Alcotest.failf "expected two batches, got %d" (List.length bs));
  (* the member appearing later starts streaming from its beginning *)
  write_lines missing [ ev_line 7 ];
  match Obs.Follow.Multi.poll m with
  | Error msg -> Alcotest.fail msg
  | Ok [ (_, b1); (_, b2) ] ->
    check_bool "present member drained" true (b1.Obs.Follow.events = []);
    check_int "appeared member streams" 1 (List.length b2.Obs.Follow.events)
  | Ok bs -> Alcotest.failf "expected two batches, got %d" (List.length bs)

(* The protocol's core guarantee: streaming a trace through a follower
   in arbitrary small increments yields the byte-identical event stream
   of a one-shot read. *)
let test_follow_stream_equals_one_shot () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.jsonl" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
          ignore
            (Harness.Campaign.run ~budget:6 ~seed:2024 Harness.Approach.Llm4fp)));
  let one_shot =
    match Obs.Follow.read_all ~path with
    | Ok evs -> evs
    | Error msg -> Alcotest.fail msg
  in
  check_bool "trace is non-trivial" true (List.length one_shot > 20);
  let data = read_file path in
  let dst = Filename.concat dir "stream.jsonl" in
  let oc = open_out_bin dst in
  let f = Obs.Follow.create ~path:dst in
  let streamed = ref [] in
  let chunk = 7 in
  let rec feed pos =
    if pos < String.length data then begin
      let len = min chunk (String.length data - pos) in
      output_string oc (String.sub data pos len);
      flush oc;
      let b = expect_ok (Obs.Follow.poll f) in
      streamed := !streamed @ b.Obs.Follow.events;
      feed (pos + len)
    end
  in
  feed 0;
  close_out oc;
  check_bool "streamed batches equal one-shot read" true
    (!streamed = one_shot)

(* ------------------------------------------------------------------ *)
(* Span tree and flame export *)

let test_span_tree () =
  with_spans @@ fun () ->
  Obs.Span.with_span "a" (fun () ->
      Obs.Span.with_span "b" (fun () -> ());
      Obs.Span.with_span "b" (fun () -> ());
      Obs.Span.with_span "c" (fun () -> ()));
  Obs.Span.with_span "b" (fun () -> ());
  let roots = Obs.Span.tree () in
  check_bool "roots sorted by label" true
    (List.map (fun n -> n.Obs.Span.n_label) roots = [ "a"; "b" ]);
  let a = List.hd roots in
  check_bool "a's children sorted" true
    (List.map (fun n -> n.Obs.Span.n_label) a.Obs.Span.n_children
    = [ "b"; "c" ]);
  let ab = List.hd a.Obs.Span.n_children in
  check_int "b under a aggregates both entries" 2 ab.Obs.Span.n_count;
  check_bool "path is root-first" true (ab.Obs.Span.n_path = [ "a"; "b" ]);
  check_int "root b is separate" 1
    (List.nth roots 1).Obs.Span.n_count;
  (* self time: parent total covers its children *)
  let child_total =
    List.fold_left
      (fun s c -> s +. c.Obs.Span.n_total_s)
      0.0 a.Obs.Span.n_children
  in
  check_bool "self = total - children (clamped)" true
    (a.Obs.Span.n_self_s >= 0.0
    && a.Obs.Span.n_self_s <= a.Obs.Span.n_total_s -. child_total +. 1e-9);
  (* flat summary merges on leaf label across parents *)
  (match find_span "b" with
  | Some r -> check_int "flat count sums both paths" 3 r.Obs.Span.count
  | None -> Alcotest.fail "flat summary lost b");
  check_bool "tree render mentions labels" true
    (Util.Text.contains_sub (Obs.Span.render_tree ()) "  b")

let test_span_flame () =
  with_spans @@ fun () ->
  Obs.Span.with_span "outer" (fun () ->
      Obs.Span.with_span "inner" (fun () -> Unix.sleepf 0.002));
  let flame = Obs.Span.flame () in
  let reparsed =
    match Obs.Json.parse (Obs.Json.to_string flame) with
    | Ok v -> v
    | Error msg -> Alcotest.fail ("flame not valid JSON: " ^ msg)
  in
  let events =
    match Obs.Json.member "traceEvents" reparsed with
    | Some (Obs.Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  check_int "one slice per tree node" 2 (List.length events);
  let num field ev =
    match Obs.Json.member field ev with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> Alcotest.fail (field ^ " missing")
  in
  List.iter
    (fun ev ->
      check_bool "complete slice" true
        (Obs.Json.member "ph" ev = Some (Obs.Json.String "X"));
      check_bool "has name" true (Obs.Json.member "name" ev <> None);
      check_bool "has pid/tid" true
        (Obs.Json.member "pid" ev <> None && Obs.Json.member "tid" ev <> None);
      check_bool "non-negative timing" true
        (num "ts" ev >= 0.0 && num "dur" ev >= 0.0))
    events;
  (* DFS order: outer first, inner nested within it *)
  match events with
  | [ outer; inner ] ->
    check_bool "outer named first" true
      (Obs.Json.member "name" outer = Some (Obs.Json.String "outer"));
    check_bool "child nested in parent" true
      (num "ts" inner >= num "ts" outer
      && num "ts" inner +. num "dur" inner
         <= num "ts" outer +. num "dur" outer)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Coverage ledger *)

let ckey kind pair level classes = { Obs.Coverage.kind; pair; level; classes }

let test_coverage_ledger () =
  let t = Obs.Coverage.create () in
  check_float "default window" 600.0 (Obs.Coverage.window t);
  let k1 = ckey "cross" "gcc, nvcc" "03_fastmath" "{Real, Real}" in
  let k2 = ckey "within" "gcc" "01" "{Real, Real}" in
  check_bool "first hit is novel" true
    (Obs.Coverage.record t ~slot:1 ~strategy:"grammar" ~sim_s:5.0 k1);
  check_bool "repeat hit is not novel" false
    (Obs.Coverage.record t ~slot:2 ~strategy:"mutate" ~sim_s:9.0 k1);
  check_bool "second key is novel again" true
    (Obs.Coverage.record t ~slot:3 ~strategy:"mutate" ~sim_s:12.0 k2);
  check_int "total cells" 2 (Obs.Coverage.total_cells t);
  check_int "cross cells" 1 (Obs.Coverage.kind_cells t "cross");
  check_int "within cells" 1 (Obs.Coverage.kind_cells t "within");
  check_int "total hits" 3 (Obs.Coverage.total_hits t);
  (match Obs.Coverage.find t k1 with
  | None -> Alcotest.fail "recorded key lost"
  | Some c ->
    check_int "per-cell hits" 2 c.Obs.Coverage.hits;
    check_int "first-discovery slot" 1 c.Obs.Coverage.first_slot;
    check_float "first-discovery sim clock" 5.0 c.Obs.Coverage.first_sim_s;
    check_string "discovering strategy survives repeats" "grammar"
      c.Obs.Coverage.strategy);
  check_bool "cells sorted by key" true
    (List.map fst (Obs.Coverage.cells t) = [ k1; k2 ]);
  check_float "last novel" 12.0 (Obs.Coverage.last_novel t)

let test_coverage_rates_and_plateau () =
  let t = Obs.Coverage.create ~window:100.0 () in
  let k n = ckey "cross" (Printf.sprintf "p%d" n) "03" "{Real, Real}" in
  ignore (Obs.Coverage.record t ~slot:1 ~strategy:"grammar" ~sim_s:10.0 (k 1));
  ignore (Obs.Coverage.record t ~slot:2 ~strategy:"grammar" ~sim_s:20.0 (k 1));
  ignore (Obs.Coverage.record t ~slot:3 ~strategy:"mutate" ~sim_s:40.0 (k 2));
  (match Obs.Coverage.strategy_rates t ~now:50.0 with
  | [ g; m ] ->
    check_string "rates sorted by strategy" "grammar" g.Obs.Coverage.strategy;
    check_int "grammar window hits" 2 g.Obs.Coverage.window_hits;
    check_int "grammar window novel" 1 g.Obs.Coverage.window_novel;
    (* only 50 sim-seconds observed so far: divide by the real span *)
    check_float ~eps:1e-12 "rate over the observed span" (2.0 /. 50.0)
      g.Obs.Coverage.hits_per_sim_s;
    check_int "mutate window novel" 1 m.Obs.Coverage.window_novel
  | rs ->
    Alcotest.fail (Printf.sprintf "expected 2 strategies, got %d"
                     (List.length rs)));
  check_bool "novelty at 40 keeps 50 off the plateau" false
    (Obs.Coverage.plateaued t ~now:50.0);
  (* recording at 130 prunes everything at or before 30 from the window *)
  ignore (Obs.Coverage.record t ~slot:4 ~strategy:"mutate" ~sim_s:130.0 (k 2));
  (match Obs.Coverage.strategy_rates t ~now:130.0 with
  | [ m ] ->
    check_string "grammar aged out of the window" "mutate"
      m.Obs.Coverage.strategy;
    check_int "window keeps the 40 and 130 hits" 2 m.Obs.Coverage.window_hits
  | rs ->
    Alcotest.fail (Printf.sprintf "expected 1 strategy, got %d"
                     (List.length rs)));
  check_bool "not plateaued 90s after the last novelty" false
    (Obs.Coverage.plateaued t ~now:130.0);
  check_bool "plateaued one window after the last novelty" true
    (Obs.Coverage.plateaued t ~now:141.0);
  (match Obs.Coverage.plateau_at t ~now:141.0 with
  | Some at -> check_float ~eps:1e-12 "plateau trip time" 140.0 at
  | None -> Alcotest.fail "plateau_at missing while plateaued");
  check_bool "plateau_at silent before the trip" true
    (Obs.Coverage.plateau_at t ~now:130.0 = None);
  (* an all-quiet campaign plateaus one window after its start *)
  let quiet = Obs.Coverage.create ~window:50.0 () in
  check_bool "quiet campaign plateaus" true
    (Obs.Coverage.plateaued quiet ~now:50.0)

let test_coverage_json_roundtrip () =
  let t = Obs.Coverage.create ~window:120.0 () in
  ignore
    (Obs.Coverage.record t ~slot:1 ~strategy:"grammar" ~sim_s:7.25
       (ckey "cross" "gcc, clang" "02" "{Real, Real}"));
  ignore
    (Obs.Coverage.record t ~slot:1 ~strategy:"grammar" ~sim_s:7.25
       (ckey "within" "nvcc" "03" "{Real, Zero}"));
  ignore
    (Obs.Coverage.record t ~slot:2 ~strategy:"mutate" ~sim_s:19.0
       (ckey "cross" "gcc, clang" "02" "{Real, Real}"));
  let json = Obs.Coverage.to_json t in
  match Obs.Coverage.of_json json with
  | Error msg -> Alcotest.fail ("snapshot did not decode: " ^ msg)
  | Ok t' ->
    check_string "byte-identical reserialization" (Obs.Json.to_string json)
      (Obs.Json.to_string (Obs.Coverage.to_json t'));
    (* the restored ledger is full continuation state: both continue
       recording identically *)
    let k = ckey "within" "gcc" "01" "{Real, Real}" in
    let a = Obs.Coverage.record t ~slot:9 ~strategy:"direct" ~sim_s:90.0 k in
    let b = Obs.Coverage.record t' ~slot:9 ~strategy:"direct" ~sim_s:90.0 k in
    check_bool "continuation agrees on novelty" true (a = b);
    check_string "continuation serializes identically"
      (Obs.Json.to_string (Obs.Coverage.to_json t))
      (Obs.Json.to_string (Obs.Coverage.to_json t'));
    List.iter
      (fun (label, bad) ->
        match Obs.Coverage.of_json bad with
        | Ok _ -> Alcotest.fail ("accepted " ^ label)
        | Error msg ->
          check_bool (label ^ " diagnosed") true (String.length msg > 0))
      [ ("wrong schema",
         Obs.Json.Obj [ ("schema", Obs.Json.String "llm4fp-bench/9") ]);
        ("non-object", Obs.Json.Int 3);
        ( "recent hits newest first",
          match json with
          | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (List.map
                 (function
                   | "recent", Obs.Json.List hits ->
                     ("recent", Obs.Json.List (List.rev hits))
                   | field -> field)
                 fields)
          | _ -> Alcotest.fail "snapshot is not an object" ) ]

(* ------------------------------------------------------------------ *)
(* Deck fold and flight-deck rendering *)

let test_deck_fold_and_render () =
  let v = Obs.Deck.of_events sample_events in
  check_int "budget" 16 v.Report.Flightdeck.budget;
  check_int "slots done" 1 v.Report.Flightdeck.slots_done;
  check_bool "strategy counted" true
    (v.Report.Flightdeck.strategies = [ ("grammar", 1) ]);
  check_bool "hit counted by pair and level" true
    (v.Report.Flightdeck.hits = [ (("gcc, nvcc", "03_fastmath"), 1) ]);
  check_int "cases" 1 v.Report.Flightdeck.cases;
  check_int "coverage cells" 1 v.Report.Flightdeck.coverage_cells;
  check_int "coverage cross cells" 1 v.Report.Flightdeck.coverage_cross;
  check_int "coverage within cells" 0 v.Report.Flightdeck.coverage_within;
  check_int "coverage hits (novel + repeat)" 2 v.Report.Flightdeck.coverage_hits;
  check_bool "novelty counted by strategy" true
    (v.Report.Flightdeck.novel_by_strategy = [ ("grammar", 1) ]);
  check_float "last novel sim clock" 12.5 v.Report.Flightdeck.last_novel_sim_s;
  check_float "window learned from campaign start"
    Obs.Coverage.default_window v.Report.Flightdeck.coverage_window;
  check_bool "finished" true v.Report.Flightdeck.finished;
  check_bool "sim clock is max of boundaries" true
    (v.Report.Flightdeck.sim_s = 138.0);
  let frame = Obs.Deck.of_events sample_events |> Report.Flightdeck.render in
  check_string "render is pure" frame
    (Report.Flightdeck.render (Obs.Deck.of_events sample_events));
  check_bool "frame mentions the deck" true
    (Util.Text.contains_sub frame "flight deck");
  check_bool "frame reports eta done" true
    (Util.Text.contains_sub frame "eta done");
  (* campaign_started resets a stale view (rotation) *)
  let reset =
    Obs.Deck.apply v
      (Obs.Event.Campaign_started
         { approach = "Varity"; budget = 3; seed = 1; precision = "fp32" })
  in
  check_int "restart clears the fold" 0 reset.Report.Flightdeck.slots_done

let test_deck_sparkline () =
  check_string "empty" "" (Report.Flightdeck.sparkline []);
  let s = Report.Flightdeck.sparkline [ 0.0; 1.0; 2.0; 4.0 ] in
  check_bool "max maps to full block" true
    (Util.Text.contains_sub s "\xe2\x96\x88");
  check_string "deterministic" s
    (Report.Flightdeck.sparkline [ 0.0; 1.0; 2.0; 4.0 ])

let test_metrics_empty_percentiles_render () =
  let _ = Obs.Metrics.histogram ~buckets:[| 1.0 |] "test.empty_hist" in
  let table = Obs.Metrics.render_percentiles () in
  check_bool "empty histogram listed" true
    (Util.Text.contains_sub table "test.empty_hist");
  check_bool "empty quantiles render as dash" true
    (Util.Text.contains_sub table "-")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float repr" `Quick test_json_float_repr;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "event jsonl" `Quick test_event_jsonl;
          Alcotest.test_case "event of_json roundtrip" `Quick
            test_event_of_json_roundtrip;
          Alcotest.test_case "event accessors" `Quick test_event_accessors;
        ] );
      ( "follow",
        [
          Alcotest.test_case "empty and missing files" `Quick
            test_follow_empty_and_missing;
          Alcotest.test_case "partial final line" `Quick
            test_follow_partial_final_line;
          Alcotest.test_case "rotation" `Quick test_follow_rotation;
          Alcotest.test_case "corrupt line" `Quick test_follow_corrupt_line;
          Alcotest.test_case "unknown event kind diagnosed" `Quick
            test_follow_unknown_event_kind;
          Alcotest.test_case "multi tolerates missing member" `Quick
            test_follow_multi_missing_member;
          Alcotest.test_case "stream equals one-shot" `Slow
            test_follow_stream_equals_one_shot;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "ledger" `Quick test_coverage_ledger;
          Alcotest.test_case "rates and plateau" `Quick
            test_coverage_rates_and_plateau;
          Alcotest.test_case "json roundtrip" `Quick
            test_coverage_json_roundtrip;
        ] );
      ( "deck",
        [
          Alcotest.test_case "fold and render" `Quick test_deck_fold_and_render;
          Alcotest.test_case "sparkline" `Quick test_deck_sparkline;
          Alcotest.test_case "empty percentiles render" `Quick
            test_metrics_empty_percentiles_render;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "gauge" `Quick test_metrics_gauge;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "kind conflict" `Quick test_metrics_kind_conflict;
          Alcotest.test_case "snapshot sorted" `Quick
            test_metrics_snapshot_sorted_and_rendered;
          Alcotest.test_case "reset" `Quick test_metrics_reset;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting_and_aggregation;
          Alcotest.test_case "sim clock" `Quick test_span_sim_clock;
          Alcotest.test_case "disabled" `Quick test_span_disabled_records_nothing;
          Alcotest.test_case "exception safe" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "render" `Quick test_span_render;
          Alcotest.test_case "tree" `Quick test_span_tree;
          Alcotest.test_case "flame export" `Quick test_span_flame;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring sink" `Quick test_ring_sink;
          Alcotest.test_case "slot context" `Quick test_slot_context;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic jsonl" `Slow
            test_campaign_trace_deterministic;
          Alcotest.test_case "trace shape" `Slow test_campaign_trace_shape;
          Alcotest.test_case "tracing is inert" `Slow
            test_campaign_untraced_still_works;
          Alcotest.test_case "metrics populated" `Slow
            test_campaign_metrics_populated;
        ] );
    ]
