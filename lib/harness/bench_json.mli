(** Machine-readable benchmark results (the BENCH_PR2.json format) and
    the regression comparator behind [make bench-check].

    One {!row} per (figure, label) benchmark cell: throughput, latency
    percentiles (when sampled), the final chain census's headline
    numbers, and bytes-per-entry space.  A {!doc} wraps the rows with a
    schema version and run metadata.  Serialisation is hand-rolled;
    parsing goes through [Jsonlite], keeping the format a strict-JSON
    round trip with no external dependency. *)

val schema_version : int

type row = {
  r_figure : string;  (** section id: fig8a, fig9, fig12, ... *)
  r_label : string;  (** cell id, unique within its figure *)
  r_mops : float;  (** 0. for space-only rows *)
  r_p50_us : float;  (** 0. when latency sampling was off *)
  r_p99_us : float;
  r_chain_max : int;
  r_chain_p99 : int;
  r_indirect_links : int;
  r_reclaimable : int;
  r_violations : int;  (** census chain-invariant violations (want 0) *)
  r_space_bytes : float;  (** bytes per entry; 0. when not measured *)
  r_retries : int;
      (** retries the run absorbed (txn validation conflicts; parsed as
          0 from pre-resilience files, serialised only when non-zero) *)
  r_giveups : int;
      (** operations abandoned after retry exhaustion (txn rows; same
          serialisation conventions as [r_retries]) *)
  r_alloc_bytes_per_op : float;
      (** GC-allocated bytes per completed operation (minor + direct
          major words summed over per-worker [Gc.quick_stat] deltas);
          0. = not measured, omitted from the serialisation; gated by
          {!diff} when both runs carry it *)
  r_gc_minor : int;
      (** minor collections during the measured run (0 = not measured /
          none; omitted when 0) *)
  r_gc_major : int;  (** major collections, same conventions *)
}

type doc = {
  d_schema : int;
  d_label : string;
  d_created : string;  (** YYYY-MM-DD, informational *)
  d_scale : string;  (** ci | quick | full *)
  d_rows : row list;
}

val make_doc : ?label:string -> ?scale:string -> row list -> doc
(** Stamps today's date and {!schema_version}. *)

val to_json : doc -> string

val write_file : string -> doc -> unit

val of_string : string -> (doc, string) result
(** Strict parse + schema-version check.  Keys this schema no longer
    carries (older docs' [phases], [walk_saturation], [shed]) are
    ignored. *)

val read_file : string -> (doc, string) result

val find : doc -> figure:string -> label:string -> row option

(** {1 Regression comparison} *)

type issue =
  | Missing_row of { figure : string; label : string }
  | Regression of {
      figure : string;
      label : string;
      metric : string;
      base : float;
      cur : float;
      limit : float;
    }
  | Violations of { figure : string; label : string; count : int }

val describe_issue : issue -> string

val diff : ?threshold:float -> ?lat_threshold:float -> doc -> doc -> issue list
(** [diff ~threshold base cur] — one-sided, tolerant policy: throughput
    may drop and space (and, when both runs measured it,
    allocation-per-op) may grow by at most [threshold] percent (default
    50); rows present in [base] must exist in [cur]; census violations
    in [cur] are an issue at any threshold.  Latency percentiles are
    informational unless [lat_threshold] is given (on an oversubscribed
    core, sub-second p99s swing by orders of magnitude from scheduler
    preemption alone).  Values near the noise floor are exempt.  Empty
    result = pass. *)
