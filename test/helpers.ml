(* Shared test helpers. The (tests) stanza links every module in this
   directory into each suite executable, so suites just [open Helpers].

   Nothing here touches the global [Random] state: temporary-directory
   names come from a per-process counter, so suites stay deterministic
   and independent of test execution order. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_float ?(eps = 0.0) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let parse = Cparse.Parse.program_exn

(* ------------------------------------------------------------------ *)
(* Filesystem *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmp_counter = ref 0

(* A fresh path under the system temp dir (not created — callers like
   Recorder.create mkdir it themselves), removed on the way out. *)
let with_tmpdir ?(prefix = "llm4fp-test") f =
  incr tmp_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Campaign fixtures *)

(* A case archive as comparable bytes: (filename, contents) sorted by
   name. The shape every byte-identity drill (checkpoint resume, fleet
   shard invariance) compares on. *)
let archive_bytes dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (fun name -> (name, read_file (Filename.concat dir name)))

(* The one mini-campaign fixture the forensics, checkpoint, harness,
   fleet and observer suites share: a fixed-seed recorded + traced
   campaign under [root], returning the outcome plus the
   trace file and archive directory it wrote. The trace is written
   unbuffered, so a concurrent follower sees it grow write by write,
   torn lines included, instead of in 64 KiB flushes. *)
let run_traced_campaign ?(budget = 20) ?(seed = 20250704)
    ?(approach = Harness.Approach.Llm4fp) ?(grow_seeds = []) ~root () =
  Util.Durable.mkdir_p root;
  let arch = Filename.concat root "cases" in
  let trace = Filename.concat root "trace.jsonl" in
  let recorder = Difftest.Recorder.create ~dir:arch in
  let oc = open_out_bin trace in
  Out_channel.set_buffered oc false;
  let outcome =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Trace.with_sink (Obs.Sink.jsonl oc) (fun () ->
            Harness.Campaign.run ~budget ~recorder ~grow_seeds ~seed approach))
  in
  (outcome, trace, arch)

(* Damage a checkpoint file the way a bad byte can without breaking
   its JSON: line 2 holds the LLM session, and its first stored skeleton
   gets a second opening parenthesis after [void compute], so it no
   longer parses. *)
let break_first_skeleton path =
  let lines = String.split_on_char '\n' (read_file path) in
  let needle = "void compute" in
  let break line =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length line then Alcotest.fail "no skeleton to break"
      else if String.sub line i n = needle then i + n
      else find (i + 1)
    in
    let at = find 0 in
    String.sub line 0 at ^ "(" ^ String.sub line at (String.length line - at)
  in
  let oc = open_out_bin path in
  output_string oc
    (String.concat "\n" (List.mapi (fun i l -> if i = 1 then break l else l) lines));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Golden files *)

let max_diff_lines = 10

(* Compare [actual] against the committed golden file, failing with a
   compact line diff instead of dumping both documents. *)
let check_golden msg ~golden actual =
  let expected = read_file golden in
  if String.equal expected actual then ()
  else begin
    let el = String.split_on_char '\n' expected in
    let al = String.split_on_char '\n' actual in
    let nth l i =
      match List.nth_opt l i with Some s -> s | None -> "<missing line>"
    in
    let b = Buffer.create 256 in
    let shown = ref 0 in
    let total = ref 0 in
    for i = 0 to max (List.length el) (List.length al) - 1 do
      let e = nth el i and a = nth al i in
      if e <> a then begin
        incr total;
        if !shown < max_diff_lines then begin
          incr shown;
          Buffer.add_string b
            (Printf.sprintf "  line %d\n    golden: %s\n    actual: %s\n"
               (i + 1) e a)
        end
      end
    done;
    if !total > !shown then
      Buffer.add_string b
        (Printf.sprintf "  ... and %d more differing line(s)\n"
           (!total - !shown));
    Alcotest.failf "%s: output differs from %s on %d line(s)\n%s" msg golden
      !total (Buffer.contents b)
  end
