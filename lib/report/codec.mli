(** Declarative JSON codecs: one value both encodes and decodes.

    Every replayable artifact is declared once as a ['a t].  A record
    codec lists its fields in written order, each as one line carrying
    the field's name, its leaf codec and its getter:
    {[
      record (fun n history -> { n; history })
      |> header ~kind:"rrfd-example" ~version:1
      |> field "n" int (fun r -> r.n)
      |> field "history" history (fun r -> r.history)
      |> obj
    ]}
    The header is checked before any field is read.  Checks spanning
    several fields are a {!map} over the decoded record. *)

type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a }
(** [dec] raises on a malformed document; {!decode} is its total form. *)

val decode : 'a t -> Json.t -> ('a, string) result
(** Every rejection ({!Json.Error}, [Failure], [Invalid_argument]) as
    [Error]. *)

val of_string : 'a t -> string -> ('a, string) result
(** Parse, then {!decode}: never raises. *)

val to_string : ?pretty:bool -> 'a t -> 'a -> string
(** Compact unless [pretty]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Reject the document being decoded, with a message. *)

(** {1 Leaves} *)

val json : Json.t t
(** The document itself, for bodies built by hand. *)

val int : int t

val float : float t
(** Non-finite values travel as [null] and read back as [nan]. *)

val string : string t

val bool : bool t

val decimal : int t
(** An integer as a decimal string: 63-bit seeds do not fit a JSON
    double. *)

val list : 'a t -> 'a list t

val array : 'a t -> 'a array t

val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val assoc : 'a t -> (string * 'a) list t
(** An object with arbitrary member names, in order. *)

val map : dec:('b -> 'a) -> enc:('a -> 'b) -> 'b t -> 'a t

val history : Rrfd.Fault_history.t t
(** {!Rrfd.Fault_history.to_string_compact} form. *)

val decisions : int option array t
(** A decision vector, [null] for an undecided process. *)

(** {1 Records} *)

type ('o, 'k) record
(** A record codec for ['o] under construction; ['k] is what the
    constructor still awaits. *)

val record : 'k -> ('o, 'k) record
(** Start from the constructor, which takes the fields in order. *)

val header : kind:string -> version:int -> ('o, 'k) record -> ('o, 'k) record
(** Write ["version"] and ["kind"]; refuse any other kind or version. *)

val field :
  string -> 'a t -> ('o -> 'a) -> ('o, 'a -> 'k) record -> ('o, 'k) record
(** [field name leaf get]: member [name], written from [get] through
    [leaf]; an absent member decodes as [null]. *)

val opt :
  string ->
  'a t ->
  ('o -> 'a option) ->
  ('o, 'a option -> 'k) record ->
  ('o, 'k) record
(** Omitted when [None]; absent or [null] reads as [None]. *)

val inline : 'a t -> ('o -> 'a) -> ('o, 'a -> 'k) record -> ('o, 'k) record
(** Splice an object codec's members flat into this object; it decodes
    from the enclosing object. *)

val obj : ('o, 'o) record -> 'o t
