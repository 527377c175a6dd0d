(** Link encryption for untrusted environments (§3.5): an involutive
    key-stream transform on the data path, with a per-word cost that
    models hardware (AN1-style controller) versus software
    implementations. *)

type t

val make : key:int -> per_word_cost:Sim.Time.t -> t

val transform : t -> bytes -> bytes
(** Encrypt/decrypt (involution). Two endpoints agree iff their keys
    match; a receiver without the right key sees ciphertext. *)

val transform_in_place : t -> bytes -> pos:int -> len:int -> unit
(** {!transform} of [len] bytes at [pos], overwriting them; the key
    stream starts at [pos], so the result equals transforming a copy of
    the range. *)

val cost : t -> bytes:int -> Sim.Time.t
(** CPU time to transform [bytes] at the configured per-word rate. *)

val per_word_cost : t -> Sim.Time.t

val hardware_an1 : t
(** Near-free: the controller encrypts as data streams through. *)

val software_des : t
(** A software DES-class cipher on the workstation CPU: dominant, the
    paper's "will not provide adequate performance" case. *)
