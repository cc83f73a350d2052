(** Scheduled endpoint crash–restart events: the process-fault analogue
    of {!Ba_channel.Fault_plan}.

    A plan is a list of events, each crashing one endpoint at a tick and
    restarting it [down_for] ticks later. Like the channel plans, a
    crash plan is replayable: campaigns derive it as a pure function of
    the seed, print it in any failure's report, and regenerate it from
    the seed on replay. *)

type endpoint = Sender_end | Receiver_end

type event = { at : int; endpoint : endpoint; down_for : int }

type t = event list

val none : t

val make : event list -> t
(** Validates and sorts by crash tick. Raises [Invalid_argument] on a
    negative tick or non-positive [down_for]. *)

val validate : t -> unit

val pp : Format.formatter -> t -> unit
(** The form failure reports print: [crash(S@150+80)] = sender crashes
    at tick 150 and restarts 80 ticks later; events join with ["+"]; the
    empty plan prints ["none"]. *)
