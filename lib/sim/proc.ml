(* Cooperative simulation processes built on OCaml effects.

   A process is ordinary direct-style code; [wait] and [suspend] perform
   effects that the scheduler installed by [spawn] interprets against the
   engine's event queue.  Continuations are one-shot: [suspend]'s resume
   callback guards against double resumption.

   Every process carries a name and knows its engine.  [suspend_on] is
   one effect whose handler, which holds both, registers the blocked
   process with the engine's waiter registry: that is what makes
   engine-level deadlock reports name processes and resources.  The
   [Info] effect hands the name to [self_name]. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Wait : Time.t -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Suspend_on : {
      daemon : bool;
      kind : string option;
      resource : string;
      register : ('a -> unit) -> unit;
    }
      -> 'a Effect.t
  | Info : string Effect.t

exception Not_in_process

let wait span = perform (Wait span)

let yield () = perform (Wait Time.zero)

let suspend register = perform (Suspend register)

let self_name () =
  match perform Info with
  | name -> name
  | exception Effect.Unhandled _ -> raise Not_in_process

let suspend_on ?(daemon = false) ?kind ~resource register =
  perform (Suspend_on { daemon; kind; resource; register })

(* The one-shot resume function handed out for a suspension.  A
   non-negative [token] is the waiter registration it clears. *)
let resume_once engine k ~token =
  let resumed = ref false in
  fun v ->
    if !resumed then invalid_arg "Proc: continuation resumed twice";
    resumed := true;
    if token >= 0 then Engine.clear_blocked engine token;
    Engine.schedule_after engine Time.zero (fun () -> continue k v)

let spawn ?(after = Time.zero) ?name engine body =
  let name =
    match name with
    | Some name -> name
    | None -> Printf.sprintf "proc%d" (Engine.next_spawn_id engine)
  in
  let run () =
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = (fun exn -> raise exn);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Wait span ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    Engine.schedule_after engine span (fun () ->
                        continue k ()))
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    register (resume_once engine k ~token:(-1)))
            | Suspend_on { daemon; kind; resource; register } ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let token =
                      Engine.register_blocked engine ~process:name ?kind
                        ~resource ~daemon ()
                    in
                    register (resume_once engine k ~token))
            | Info ->
                Some (fun (k : (a, unit) continuation) -> continue k name)
            | _ -> None);
      }
  in
  Engine.schedule ~after engine run

let run engine body =
  let result = ref None in
  let failure = ref None in
  spawn ~name:"main" engine (fun () ->
      match body () with
      | v -> result := Some v
      | exception exn -> failure := Some exn);
  Engine.run engine;
  match (!result, !failure) with
  | Some v, _ -> v
  | None, Some exn -> raise exn
  | None, None ->
      raise (Engine.Deadlock (Engine.now engine, Engine.blocked engine))
