(* Crash-safe file writes.

   Every durable artifact in the tree (case archives, minimized
   companions, checkpoints, HTML dashboards) goes through
   [write_atomic]: the bytes land in a temporary file in the same
   directory, are flushed and fsync'd, and only then renamed over the
   final path. POSIX rename within a filesystem is atomic, so readers
   observe either the old complete file or the new complete file —
   never a truncated hybrid. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  (* Persist the rename itself: fsync the containing directory. Some
     filesystems refuse O_RDONLY fsync on directories; that is a
     durability hint lost, not a correctness failure. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let tmp_counter = Atomic.make 0

let write_atomic ~path f =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  (match f oc with
  | () ->
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  (match Unix.rename tmp path with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  fsync_dir dir

let write_string ~path s = write_atomic ~path (fun oc -> output_string oc s)
