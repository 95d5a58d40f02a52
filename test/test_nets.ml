(* The paper's Auto MPG networks (Table I), trained on demand into a
   per-process scratch cache.  Training is deterministic, so these are
   the weights [grc train] and [bench/main.exe] cache under artifacts/,
   and numbers recorded against those files reproduce here. *)

let with_tmp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grc-test-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let saved = !Exp.Models.cache_dir in
  Exp.Models.cache_dir := dir;
  Fun.protect ~finally:(fun () -> Exp.Models.cache_dir := saved) f

let auto_mpg ~id ~sizes () =
  with_tmp_cache (fun () ->
      (Exp.Models.auto_mpg_net ~id ~sizes ()).Exp.Models.net)

let dnn2 = auto_mpg ~id:"dnn2" ~sizes:(8, 4)
let dnn3 = auto_mpg ~id:"dnn3" ~sizes:(8, 8)
let dnn4 = auto_mpg ~id:"dnn4" ~sizes:(16, 16)
let dnn5 = auto_mpg ~id:"dnn5" ~sizes:(32, 32)
