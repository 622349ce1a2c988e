let parse name ~accepted conv = function
  | None -> Ok None
  | Some v -> (
      match conv (String.trim v) with
      | Some x -> Ok (Some x)
      | None ->
          Error
            (Printf.sprintf "invalid %s=%S: expected %s" name v accepted))

let get name ~accepted ~default conv =
  match parse name ~accepted conv (Sys.getenv_opt name) with
  | Ok None -> default
  | Ok (Some x) -> x
  | Error msg ->
      prerr_endline (Filename.basename Sys.executable_name ^ ": " ^ msg);
      exit 2

let int_at_least lo s =
  match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None
