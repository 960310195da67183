(* E22 — Crash-consistent streaming sketches: the chaos battery.

   Exercises Issue 8's tentpole end to end and *enforces* its contracts
   (a violated floor aborts the whole bench run):

   1. torn-write recovery: a WAL-backed journal is killed at every record
      boundary AND torn at every single byte offset of the log; every
      recovery must reproduce the uninterrupted run's state digest for
      the surviving prefix, with mid-record tears quarantined as [Torn]
      — never applied, never silently dropped;
   2. adversarial records: [Wal.Adversary] drives deterministic
      drop/corrupt/duplicate/reorder sweeps through [Fault] policies;
      replay must keep the books balanced,
      applied + duplicates + stale + |quarantined| = offered,
      cross-checked against the [stream.wal_*] registry counters, and
      the recovered digest must equal the reference digest of the
      contiguously-applied prefix;
   3. streamed = batch: the E3/E4 decode batteries rerun with sketches
      built from a churned insert/delete stream instead of the finished
      graph — success rates and sketch sizes must agree bit for bit;
   4. re-freeze policies: Rebuild vs Delta_buffer thresholds reach
      digest-identical states while the overlay honors its bound;
   5. live serving: a dcutd catalog built entirely from streams, mutated
      mid-flight through [Serve.update_graph] — fingerprint-keyed cache
      invalidation with the zero-silent-drop accounting intact.

   A sixth, env-gated phase (DCS_STREAM_DIR, DCS_STREAM_KILL=N) runs a
   journaled ingest that bin/check_determinism.sh kills after N fresh
   records (exit 3) and then resumes in the same directory; stdout is
   byte-identical to an uninterrupted run. *)

open Dcs

(* --- deterministic insert/delete op streams --- *)

(* A shadow weight table keeps deletions legal: every generated op is
   applicable, so replay accounting isolates *transport* damage. *)
type mutation = { op : Wal.op; u : int; v : int; w : float }

let gen_ops rng ~n ~count =
  let shadow = Hashtbl.create 97 in
  let have u v = Option.value ~default:0.0 (Hashtbl.find_opt shadow (u, v)) in
  List.init count (fun _ ->
      let u = Prng.int rng n in
      let v0 = Prng.int rng (n - 1) in
      let v = if v0 >= u then v0 + 1 else v0 in
      let w = float_of_int (1 + Prng.int rng 3) in
      let del = Prng.bernoulli rng 0.35 && have u v >= w in
      let op = if del then Wal.Delete else Wal.Insert in
      Hashtbl.replace shadow (u, v)
        (if del then have u v -. w else have u v +. w);
      { op; u; v; w })

let apply_direct t m =
  match Stream_sketch.apply t ~op:m.op ~u:m.u ~v:m.v ~w:m.w with
  | Ok () -> ()
  | Error e -> Common.fail "E22: generated op rejected (%s)" e

let journal_apply j m =
  let r =
    match m.op with
    | Wal.Insert -> Stream_sketch.journal_insert j ~u:m.u ~v:m.v ~w:m.w
    | Wal.Delete -> Stream_sketch.journal_delete j ~u:m.u ~v:m.v ~w:m.w
  in
  match r with
  | Ok () -> ()
  | Error e -> Common.fail "E22: journaled op rejected (%s)" e

let ok = function Ok x -> x | Error e -> Common.fail "E22: %s" e

(* ------------------------------------------------------------------ *)
(* Phase 1: kill/tear everywhere, recover, compare digests.           *)
(* ------------------------------------------------------------------ *)

let chaos_n = 12
let chaos_seed = 42

(* Run the whole stream through an uninterrupted journal, recording the
   state digest after every op. Closing without a checkpoint is exactly a
   record-boundary kill: the directory keeps the open-time (empty)
   snapshot plus the full log. Returns (digests, snapshot bytes, wal
   bytes). *)
let uninterrupted_journal ops =
  Common.with_dir (fun dir ->
      let j, report = ok (Stream_sketch.open_journal ~dir ~n:chaos_n ~seed:chaos_seed ()) in
      Common.enforce "E22" "fresh journal starts empty"
        (report.Wal.offered = 0);
      let t = Stream_sketch.journal_state j in
      let digests = Array.make (List.length ops + 1) 0L in
      digests.(0) <- Stream_sketch.digest t;
      List.iteri
        (fun i m ->
          journal_apply j m;
          digests.(i + 1) <- Stream_sketch.digest t)
        ops;
      Stream_sketch.close_journal j;
      let snapshot = Common.read_file (Filename.concat dir "snapshot.ckpt") in
      let wal = Common.read_file (Filename.concat dir "wal.log") in
      (digests, snapshot, wal))

(* Byte offsets at which a record boundary falls (0 included). *)
let boundaries wal =
  let scan = Wal.scan_string wal in
  Common.enforce "E22" "reference log is clean" (scan.Wal.damaged = []);
  let offs = ref [ 0 ] and pos = ref 0 in
  List.iter
    (fun r ->
      pos := !pos + String.length (Wal.encode r);
      offs := !pos :: !offs)
    scan.Wal.records;
  List.rev !offs

let torn_sweep digests snapshot wal =
  Common.with_dir (fun dir ->
      let snap_path = Filename.concat dir "snapshot.ckpt" in
      let wal_path = Filename.concat dir "wal.log" in
      Common.write_file snap_path snapshot;
      let bounds = Array.of_list (boundaries wal) in
      let complete_at b =
        (* number of whole records within the first b bytes *)
        let c = ref 0 in
        Array.iteri (fun i off -> if i > 0 && off <= b then incr c) bounds;
        !c
      in
      let len = String.length wal in
      let matches = ref 0 and torn = ref 0 and boundary_kills = ref 0 in
      for b = 0 to len do
        Common.write_file wal_path (Wal.Adversary.tear wal ~at:b);
        let r =
          ok
            (Stream_sketch.recover ~n:chaos_n ~seed:chaos_seed
               ~snapshot:snap_path ~wal:wal_path ())
        in
        let c = complete_at b in
        let at_boundary = b = bounds.(c) in
        if at_boundary then incr boundary_kills;
        Common.enforce "E22" "tear applies exactly the whole-record prefix"
          (r.Stream_sketch.report.Wal.applied = c);
        (match r.Stream_sketch.report.Wal.quarantined with
        | [] -> Common.enforce "E22" "clean tail only at a boundary" at_boundary
        | [ Wal.Damaged (Wal.Torn _) ] ->
            Common.enforce "E22" "torn tail only off-boundary"
              (not at_boundary);
            incr torn
        | q ->
            Common.fail "E22: tear at byte %d quarantined unexpectedly (%s)" b
              (String.concat "; " (List.map Wal.pp_quarantine q)));
        if Stream_sketch.digest r.Stream_sketch.state = digests.(c) then
          incr matches
        else
          Common.fail "E22: tear at byte %d: digest diverges from prefix %d" b c
      done;
      (len + 1, !matches, !torn, !boundary_kills))

(* Kill-at-every-boundary through the *journal* path: apply the first i
   ops, close (= kill), reopen — the open-time recovery + compaction must
   land on the reference digest. *)
let journal_reopen_sweep digests ops =
  let ops = Array.of_list ops in
  let count = Array.length ops in
  let matches = ref 0 in
  for i = 0 to count do
    Common.with_dir (fun dir ->
        let j, _ = ok (Stream_sketch.open_journal ~dir ~n:chaos_n ~seed:chaos_seed ()) in
        for k = 0 to i - 1 do
          journal_apply j ops.(k)
        done;
        Stream_sketch.close_journal j;
        let j2, report =
          ok (Stream_sketch.open_journal ~dir ~n:chaos_n ~seed:chaos_seed ())
        in
        Common.enforce "E22" "reopen replays the whole surviving log"
          (report.Wal.applied = i && report.Wal.quarantined = []);
        let t = Stream_sketch.journal_state j2 in
        Common.enforce "E22" "reopen restores the applied sequence"
          (Stream_sketch.applied_seq t = i);
        if Stream_sketch.digest t = digests.(i) then incr matches
        else Common.fail "E22: journal reopen after %d ops: digest diverges" i;
        Stream_sketch.close_journal j2)
  done;
  (count + 1, !matches)

let recovery_battery () =
  let ops = gen_ops (Prng.create 2203) ~n:chaos_n ~count:28 in
  let digests, snapshot, wal = uninterrupted_journal ops in
  let positions, matches, torn, boundary_kills = torn_sweep digests snapshot wal in
  let reopens, reopen_matches = journal_reopen_sweep digests ops in
  Common.enforce "E22" "every recovery digest-identical" (matches = positions);
  Common.enforce "E22" "every reopen digest-identical"
    (reopen_matches = reopens);
  Common.enforce "E22" "boundary + torn positions cover the sweep"
    (boundary_kills + torn = positions);
  let t =
    Table.create ~title:"kill/tear recovery sweep (digest-checked, enforced)"
      ~columns:[ "sweep"; "positions"; "digest matches"; "torn quarantined" ]
  in
  Table.add_row t
    [ "tear at every byte"; Table.fint positions; Table.fint matches;
      Table.fint torn ];
  Table.add_row t
    [ "kill at record boundary"; Table.fint boundary_kills;
      Table.fint boundary_kills; Table.fint 0 ];
  Table.add_row t
    [ "journal close/reopen"; Table.fint reopens; Table.fint reopen_matches;
      Table.fint 0 ];
  Table.print t;
  Common.note
    "every byte offset of the WAL was torn and recovered: whole-record";
  Common.note
    "prefixes replay to the reference digest, partial tails quarantine as";
  Common.note "Torn, and the journal reopen path re-compacts to the same state.";
  digests

(* ------------------------------------------------------------------ *)
(* Phase 2: adversarial record sweep with balanced books.              *)
(* ------------------------------------------------------------------ *)

let adversarial_battery digests ops =
  let records =
    List.mapi
      (fun i (m : mutation) ->
        { Wal.seq = i + 1; op = m.op; u = m.u; v = m.v; w = m.w })
      ops
  in
  let policies =
    [
      ("clean", Fault.no_faults);
      ("drop 10%", Fault.policy ~drop:0.10 ());
      ("corrupt 10%", Fault.policy ~corrupt:0.10 ());
      ("duplicate 15%", Fault.policy ~lie:0.15 ());
      ("reorder 20%", Fault.policy ~timeout:0.20 ());
      ("mixed 5/5/10/10", Fault.policy ~drop:0.05 ~corrupt:0.05 ~lie:0.10 ~timeout:0.10 ());
    ]
  in
  let t =
    Table.create
      ~title:
        "adversarial WAL replay: applied + dup + stale + quarantined = \
         offered (enforced)"
      ~columns:
        [ "policy"; "offered"; "applied"; "dup"; "quar"; "corrupt"; "gaps";
          "torn"; "books" ]
  in
  List.iter
    (fun (name, policy) ->
      let fault = Fault.create policy (Prng.create 2207) in
      let mangled, inj = Wal.Adversary.mangle fault records in
      let p_off = Common.probe "stream.wal_offered"
      and p_app = Common.probe "stream.wal_applied"
      and p_dup = Common.probe "stream.wal_duplicates"
      and p_stale = Common.probe "stream.wal_stale"
      and p_quar = Common.probe "stream.wal_quarantined"
      and p_corrupt = Common.probe "stream.wal_corrupt"
      and p_gaps = Common.probe "stream.wal_gaps"
      and p_torn = Common.probe "stream.wal_torn" in
      let report, state =
        Common.with_dir (fun dir ->
            let wal_path = Filename.concat dir "wal.log" in
            Common.write_file wal_path mangled;
            let r =
              ok
                (Stream_sketch.recover ~n:chaos_n ~seed:chaos_seed
                   ~snapshot:(Filename.concat dir "absent.ckpt")
                   ~wal:wal_path ())
            in
            (r.Stream_sketch.report, r.Stream_sketch.state))
      in
      let quarantined = List.length report.Wal.quarantined in
      let balanced =
        report.Wal.applied + report.Wal.duplicates + report.Wal.stale
        + quarantined
        = report.Wal.offered
      in
      Common.enforce "E22" "replay books balance" balanced;
      (* registry cross-check, E18-style *)
      Common.enforce "E22" "stream.wal_* counters mirror the report"
        (Common.delta p_off = report.Wal.offered
        && Common.delta p_app = report.Wal.applied
        && Common.delta p_dup = report.Wal.duplicates
        && Common.delta p_stale = report.Wal.stale
        && Common.delta p_quar = quarantined);
      let corrupt_q =
        List.length
          (List.filter
             (function Wal.Damaged (Wal.Corrupt _) -> true | _ -> false)
             report.Wal.quarantined)
      and gap_q =
        List.length
          (List.filter (function Wal.Gap _ -> true | _ -> false)
             report.Wal.quarantined)
      and torn_q =
        List.length
          (List.filter
             (function Wal.Damaged (Wal.Torn _) -> true | _ -> false)
             report.Wal.quarantined)
      in
      Common.enforce "E22" "typed quarantine counters mirror the report"
        (Common.delta p_corrupt = corrupt_q && Common.delta p_gaps = gap_q
        && Common.delta p_torn = torn_q);
      (* the adversary's own books *)
      Common.enforce "E22" "offered = sent - dropped + duplicated"
        (report.Wal.offered
        = List.length records - inj.Wal.Adversary.dropped
          + inj.Wal.Adversary.duplicated);
      Common.enforce "E22" "corruption damages at least each corrupted record"
        (corrupt_q >= min 1 inj.Wal.Adversary.corrupted);
      (* prefix equivalence: the applied records are exactly seqs
         1..last_seq, so the state digest must sit on the reference
         trajectory. *)
      Common.enforce "E22" "recovered digest on the reference trajectory"
        (Stream_sketch.digest state = digests.(report.Wal.last_seq));
      (match name with
      | "clean" | "reorder 20%" | "duplicate 15%" ->
          Common.enforce "E22" "lossless policies apply everything"
            (report.Wal.applied = List.length records)
      | _ -> ());
      Table.add_row t
        [
          name;
          Table.fint report.Wal.offered;
          Table.fint report.Wal.applied;
          Table.fint report.Wal.duplicates;
          Table.fint quarantined;
          Table.fint corrupt_q;
          Table.fint gap_q;
          Table.fint torn_q;
          (if balanced then "balanced" else "LEAK");
        ])
    policies;
  Table.print t;
  Common.note
    "duplicates and adjacent reorders replay losslessly; a corrupted or";
  Common.note
    "dropped record quarantines itself (typed) and halts ordered replay at";
  Common.note
    "the hole it leaves — everything after it is quarantined as Gap, and the";
  Common.note "recovered state still sits exactly on the reference trajectory.";

  Common.note "";
  Common.note
    "single-bit sensitivity: flipping any one payload bit of a record is";
  let r0 = List.hd records in
  let line = Wal.encode r0 in
  let detected = ref 0 and total = ref 0 in
  String.iteri
    (fun i c ->
      if c <> '\n' then
        for bit = 0 to 7 do
          let flipped = Char.chr (Char.code c lxor (1 lsl bit)) in
          if flipped <> '\n' then begin
            incr total;
            let s = String.mapi (fun j c0 -> if j = i then flipped else c0) line in
            match Wal.decode (String.sub s 0 (String.length s - 1)) with
            | Error _ -> incr detected
            | Ok r ->
                if r <> r0 then Common.fail "E22: undetected record mutation"
          end
        done)
    line;
  Common.enforce "E22" "every single-bit flip detected" (!detected = !total);
  Common.note "detected by CRC/canonical decode: %d/%d flips rejected."
    !detected !total

(* ------------------------------------------------------------------ *)
(* Phase 3: E3/E4 decode batteries, streamed vs batch.                 *)
(* ------------------------------------------------------------------ *)

(* Build the trial sketch from an insert/delete churn over the instance's
   edges instead of the finished graph: edges arrive in reverse, every
   third one split into two half-weight inserts, every fifth shadowed by
   an insert+delete pair that must cancel exactly. *)
let streamed_exact _rng graph =
  let n = Digraph.n graph in
  let t =
    Stream_sketch.create
      ~refreeze:(Stream_sketch.Delta_buffer { compact_threshold = 4096 })
      ~n ~seed:77 ()
  in
  let edges = ref [] in
  Digraph.iter_edges graph (fun u v w -> edges := (u, v, w) :: !edges);
  List.iteri
    (fun i (u, v, w) ->
      let push op w = apply_direct t { op; u; v; w } in
      if u <> v then begin
        if i mod 3 = 0 then begin
          push Wal.Insert (w /. 2.);
          push Wal.Insert (w /. 2.)
        end
        else push Wal.Insert w;
        if i mod 5 = 0 then begin
          push Wal.Insert 2.0;
          push Wal.Delete 2.0
        end
      end)
    !edges;
  Stream_sketch.exact_sketch t

let foreach_rerun () =
  let module F = Foreach_lb in
  let t =
    Table.create
      ~title:"E3 decode battery, batch-built vs stream-built sketches (enforced equal)"
      ~columns:[ "beta"; "1/eps"; "n"; "batch"; "streamed"; "sketch kbits" ]
  in
  List.iter
    (fun (beta, inv_eps, n) ->
      let p = F.make_params ~beta ~inv_eps n in
      let run sketch_of =
        F.run_trials (Prng.create (9000 + n + beta)) p ~sketch_of ~trials:3
          ~bits_per_trial:60
      in
      let batch = run (fun _ inst -> Exact_sketch.create inst.F.graph) in
      let streamed = run (fun r inst -> streamed_exact r inst.F.graph) in
      Common.enforce "E22" "E3 streamed success rate = batch"
        (batch.F.success_rate = streamed.F.success_rate
        && batch.F.correct = streamed.F.correct);
      Common.enforce "E22" "E3 streamed sketch bits = batch"
        (batch.F.mean_sketch_bits = streamed.F.mean_sketch_bits);
      Table.add_row t
        [
          Table.fint beta; Table.fint inv_eps; Table.fint n;
          Printf.sprintf "%.2f" batch.F.success_rate;
          Printf.sprintf "%.2f" streamed.F.success_rate;
          Common.kbits (int_of_float batch.F.mean_sketch_bits);
        ])
    [ (1, 8, 64); (4, 8, 64) ];
  Table.print t

let forall_rerun () =
  let module F = Forall_lb in
  let t =
    Table.create
      ~title:"E4 decode battery, batch-built vs stream-built sketches (enforced equal)"
      ~columns:[ "beta"; "1/eps^2"; "decoder"; "batch"; "streamed" ]
  in
  List.iter
    (fun (beta, d, decoder, dname) ->
      let p = F.make_params ~beta ~inv_eps_sq:d (2 * beta * d) in
      let run sketch_of =
        F.run_trials (Prng.create (9100 + beta + d)) p ~sketch_of ~decoder
          ~trials:30
      in
      let batch = run (fun _ inst -> Exact_sketch.create inst.F.graph) in
      let streamed = run (fun r inst -> streamed_exact r inst.F.graph) in
      Common.enforce "E22" "E4 streamed success rate = batch"
        (batch.F.success_rate = streamed.F.success_rate
        && batch.F.correct = streamed.F.correct);
      Table.add_row t
        [
          Table.fint beta; Table.fint d; dname;
          Printf.sprintf "%.2f" batch.F.success_rate;
          Printf.sprintf "%.2f" streamed.F.success_rate;
        ])
    [ (1, 8, `Single, "single"); (1, 8, `Topk, "topk"); (2, 8, `Single, "single") ];
  Table.print t;
  Common.note
    "the streamed side never sees the finished graph: edges arrive reversed,";
  Common.note
    "split, and shadowed by insert+delete churn, yet every decode decision";
  Common.note
    "and sketch size matches the batch build bit for bit (canonical state)."

(* ------------------------------------------------------------------ *)
(* Phase 4: re-freeze policy equivalence.                              *)
(* ------------------------------------------------------------------ *)

let refreeze_battery () =
  let n = 32 in
  let ops = gen_ops (Prng.create 2213) ~n ~count:400 in
  let run policy =
    let p_comp = Common.probe "stream.compactions" in
    let t = Stream_sketch.create ~refreeze:policy ~n ~seed:7 () in
    let max_overlay = ref 0 in
    List.iter
      (fun m ->
        apply_direct t m;
        max_overlay := max !max_overlay (Stream_sketch.delta_pairs t))
      ops;
    (Stream_sketch.digest t, Stream_sketch.fingerprint t,
     Stream_sketch.arcs t, !max_overlay, Common.delta p_comp)
  in
  let policies =
    [
      ("Rebuild", Stream_sketch.Rebuild, 0);
      ("Delta 8", Stream_sketch.Delta_buffer { compact_threshold = 8 }, 8);
      ("Delta 64", Stream_sketch.Delta_buffer { compact_threshold = 64 }, 64);
      ("Delta 256", Stream_sketch.Delta_buffer { compact_threshold = 256 }, 256);
    ]
  in
  let t =
    Table.create
      ~title:"re-freeze policies over 400 mutations (digest-identical, enforced)"
      ~columns:[ "policy"; "compactions"; "max overlay"; "arcs"; "digest" ]
  in
  let reference = ref None in
  List.iter
    (fun (name, policy, threshold) ->
      let digest, fp, arcs, overlay, compactions = run policy in
      (match !reference with
      | None -> reference := Some (digest, fp)
      | Some (d0, f0) ->
          Common.enforce "E22" "policy-independent state"
            (digest = d0 && fp = f0));
      Common.enforce "E22" "overlay within threshold" (overlay <= threshold);
      (match policy with
      | Stream_sketch.Rebuild ->
          Common.enforce "E22" "Rebuild compacts every mutation"
            (compactions = 400)
      | Stream_sketch.Delta_buffer _ ->
          Common.enforce "E22" "buffering compacts less than Rebuild"
            (compactions < 400));
      Table.add_row t
        [
          name; Table.fint compactions; Table.fint overlay; Table.fint arcs;
          Printf.sprintf "%016Lx" digest;
        ])
    policies;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Phase 5: live serving under mutation.                               *)
(* ------------------------------------------------------------------ *)

let serving_battery () =
  let keys = 8 and gn = 24 in
  let master = Prng.create 2221 in
  (* every catalog graph is built by streaming a generated digraph's
     edges (with churn) — the stream's frozen CSR must fingerprint
     exactly like the batch build. *)
  let streams =
    Array.init keys (fun i ->
        let r = Prng.split master i in
        let g0 = Generators.random_digraph r ~n:gn ~p:0.35 ~max_weight:4.0 in
        (* quantize weights to eighths: dyadic, so the insert/delete churn
           below cancels exactly in floating point *)
        let g = Digraph.create gn in
        Digraph.iter_edges g0 (fun u v w ->
            let q = Float.round (w *. 8.) /. 8. in
            if q > 0.0 then Digraph.add_edge g u v q);
        let t = Stream_sketch.create ~n:gn ~seed:(100 + i) () in
        let k = ref 0 in
        Digraph.iter_edges g (fun u v w ->
            let push op w = apply_direct t { op; u; v; w } in
            incr k;
            push Wal.Insert w;
            if !k mod 4 = 0 then begin
              push Wal.Insert 2.0;
              push Wal.Delete 2.0
            end);
        Common.enforce "E22" "streamed catalog graph = batch fingerprint"
          (Int64.equal (Stream_sketch.fingerprint t)
             (Csr.fingerprint (Csr.of_digraph g)));
        t)
  in
  let graphs = Array.map Stream_sketch.frozen streams in
  let traffic =
    {
      Traffic.default with
      Traffic.keys;
      Traffic.hot_keys = 2;
      Traffic.burst_every = 0;
      Traffic.burst_len = 0;
    }
  in
  let srv =
    Serve.create Serve.default_config ~graphs ~rng:(Prng.create 2237)
  in
  let n_reqs = 4000 in
  let reqs1 = Traffic.generate (Prng.create 2239) traffic ~n:n_reqs in
  let resp1 = Serve.run srv reqs1 in
  let s1 = Serve.stats srv in
  (* Mutate key 0 through the stream and republish; a content-identical
     reinstall of key 1 must NOT invalidate. *)
  List.iter
    (fun m -> apply_direct streams.(0) m)
    (gen_ops (Prng.create 2243) ~n:gn ~count:24);
  Serve.update_graph srv ~key:0 (Stream_sketch.frozen streams.(0));
  graphs.(0) <- Stream_sketch.frozen streams.(0);
  Serve.update_graph srv ~key:1 graphs.(1);
  let base = (Serve.stats srv).Serve.clock + 1 in
  let reqs2 =
    Array.map
      (fun (r : Traffic.request) -> { r with Traffic.arrival = r.arrival + base })
      (Traffic.generate (Prng.create 2251) traffic ~n:n_reqs)
  in
  let resp2 = Serve.run srv reqs2 in
  let s2 = Serve.stats srv in
  Common.enforce "E22" "mutation invalidates exactly the changed fingerprint"
    (s2.Serve.cache_invalidations = 1);
  (* zero silent drops across both runs, typed responses re-add *)
  let ans = ref 0 and shed = ref 0 and dl = ref 0 in
  Array.iter
    (function
      | Serve.Answered _ -> incr ans
      | Serve.Rejected (Serve.Overloaded _) -> incr shed
      | Serve.Rejected (Serve.Deadline_exceeded _) -> incr dl)
    (Array.append resp1 resp2);
  Common.enforce "E22" "responses mirror server accounting"
    (!ans = s2.Serve.answered && !shed = s2.Serve.shed
    && !dl = s2.Serve.deadline_rejections);
  Common.enforce "E22" "zero silent drops under mutation"
    (!ans + !shed + !dl = 2 * n_reqs && s2.Serve.offered = 2 * n_reqs);
  (* post-update answers conform against the *new* graph *)
  let kept = ref 0 and sampled = ref 0 in
  Array.iteri
    (fun i resp ->
      if i mod 37 = 0 then
        match resp with
        | Serve.Answered a ->
            incr sampled;
            let g = graphs.(reqs2.(i).Traffic.key) in
            let exact =
              Csr.cut_value g
                (Cut.random (Prng.create reqs2.(i).Traffic.cut_seed) ~n:(Csr.n g))
            in
            if Float.abs (a.Serve.value -. exact) <= (a.Serve.eps *. exact) +. 1e-9
            then incr kept
        | Serve.Rejected _ -> ())
    resp2;
  Common.enforce "E22" "post-update answers conform to the live graph"
    (!kept = !sampled);
  let t =
    Table.create ~title:"dcutd catalog under live mutation (accounting enforced)"
      ~columns:
        [ "phase"; "offered"; "answered"; "hits"; "misses"; "invalidations" ]
  in
  Table.add_row t
    [
      "before update"; Table.fint s1.Serve.offered; Table.fint s1.Serve.answered;
      Table.fint s1.Serve.cache_hits; Table.fint s1.Serve.cache_misses;
      Table.fint s1.Serve.cache_invalidations;
    ];
  Table.add_row t
    [
      "after update"; Table.fint s2.Serve.offered; Table.fint s2.Serve.answered;
      Table.fint s2.Serve.cache_hits; Table.fint s2.Serve.cache_misses;
      Table.fint s2.Serve.cache_invalidations;
    ];
  Table.print t;
  Common.note
    "post-update conformance: %d/%d sampled answers within advertised eps"
    !kept !sampled;
  Common.note
    "republish of identical content did not invalidate; the one changed";
  Common.note "fingerprint cost exactly one cache entry and one rebuild miss."

(* ------------------------------------------------------------------ *)
(* Phase 6 (env-gated): kill-then-resume journal for the determinism   *)
(* gate. Chatter on stderr; the final table depends only on the final  *)
(* state, so stdout is byte-identical killed+resumed vs uninterrupted. *)
(* ------------------------------------------------------------------ *)

let journal_cycle () =
  match Sys.getenv_opt "DCS_STREAM_DIR" with
  | None -> ()
  | Some dir ->
      let kill =
        match Sys.getenv_opt "DCS_STREAM_KILL" with
        | Some s -> int_of_string s
        | None -> 0
      in
      let total = 60 in
      let ops = gen_ops (Prng.create 2269) ~n:16 ~count:total in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let j, report =
        ok
          (Stream_sketch.open_journal ~checkpoint_every:8 ~dir ~n:16 ~seed:5 ())
      in
      let t = Stream_sketch.journal_state j in
      let start = Stream_sketch.applied_seq t in
      Printf.eprintf
        "  [E22 journal: recovered %d ops from WAL+snapshot (%d replayed, %d quarantined)]\n%!"
        start report.Wal.applied
        (List.length report.Wal.quarantined);
      let fresh = ref 0 in
      List.iteri
        (fun i m ->
          if i >= start then begin
            journal_apply j m;
            incr fresh;
            if kill > 0 && !fresh = kill && start + !fresh < total then begin
              Stream_sketch.close_journal j;
              Printf.eprintf "  [E22 journal: killed after %d ops]\n%!" kill;
              exit 3
            end
          end)
        ops;
      Stream_sketch.journal_checkpoint j;
      Stream_sketch.close_journal j;
      let tbl =
        Table.create ~title:"journaled ingest (kill/resume-invariant)"
          ~columns:[ "ops"; "arcs"; "applied seq"; "digest" ]
      in
      Table.add_row tbl
        [
          Table.fint total;
          Table.fint (Stream_sketch.arcs t);
          Table.fint (Stream_sketch.applied_seq t);
          Printf.sprintf "%016Lx" (Stream_sketch.digest t);
        ];
      Table.print tbl

let run () =
  Common.section "E22 streaming ingest: WAL recovery + adversarial tolerance";
  let ops = gen_ops (Prng.create 2203) ~n:chaos_n ~count:28 in
  let digests = recovery_battery () in
  print_newline ();
  adversarial_battery digests ops;
  print_newline ();
  foreach_rerun ();
  print_newline ();
  forall_rerun ();
  print_newline ();
  refreeze_battery ();
  print_newline ();
  serving_battery ();
  journal_cycle ()
