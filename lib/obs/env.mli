(** Environment-variable parsing shared by every [HELIX_*] knob: unset
    means the caller's default, an accepted value is used, and anything
    else stops the program with a message naming the variable and what
    it accepts, instead of an exception or a silent default. *)

val parse :
  string -> accepted:string -> (string -> 'a option) -> string option ->
  ('a option, string) result
(** [parse name ~accepted conv value]: [Ok None] when [value] is [None]
    (unset), [Ok (Some x)] when [conv] accepts the trimmed value, and
    otherwise [Error] with a message naming [name], the value and
    [accepted]. *)

val get :
  string -> accepted:string -> default:'a -> (string -> 'a option) -> 'a
(** {!parse} applied to the variable [name], [default] when it is unset;
    on a malformed value, prints the message to standard error and exits
    with status 2. *)

val int_at_least : int -> string -> int option
(** [int_at_least lo s]: [s] as an integer, if it is one and [>= lo]. *)
