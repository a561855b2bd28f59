(** OpenMetrics (Prometheus-compatible) text exposition.

    The renderer is a pure function over an abstract {!sample} list so
    that it has no dependency on {!Metrics} (which depends on it to
    implement [Metrics.to_openmetrics]) and can be unit-tested against
    hand-built samples.  Output follows the OpenMetrics text format:
    [# HELP]/[# TYPE] metadata per family, [_total]-suffixed counter
    series, histogram series with {e cumulative} [le]-labelled buckets
    plus the [+Inf] bucket, [_sum] and [_count], terminated by
    [# EOF]. *)

type sample =
  | Counter of { name : string; help : string; value : int }
  | Gauge of { name : string; help : string; value : float }
  | Histogram of {
      name : string;
      help : string;
      count : int;
      sum : float;
      buckets : (float * int) list;
          (** per-bucket (non-cumulative) counts as [(upper bound,
              count)] in increasing bound order; the renderer
              accumulates. *)
    }

val valid_name : string -> bool
(** Whether a name matches the OpenMetrics metric-name grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

val sanitize : string -> string
(** Map a registry name into the grammar: invalid characters become
    [_] (so [wal.fsync_ns] renders as [wal_fsync_ns]); a leading
    invalid character gains a [_] prefix.  Always returns a
    {!valid_name}. *)

val render : sample list -> string
(** Render the exposition text.  @raise Invalid_argument when two
    samples sanitize to the same name — a collision would silently
    merge distinct series. *)
