(* Flat, cache-friendly point storage.

   A pointset owns (or shares) a single row-major [float array] of length
   n·d; point [i] lives at [st.(offs.(i)) .. st.(offs.(i) + dim - 1)].
   Subsets and filters are index views over the same storage — no
   coordinate is copied.  All counting loops run on the flat layout and
   accumulate in the same order as the historical boxed implementation, so
   results are bit-identical. *)

type t = { st : float array; offs : int array; dim : int }

let create points =
  let count = Array.length points in
  if count = 0 then invalid_arg "Pointset.create: empty";
  let dim = Vec.dim points.(0) in
  Array.iter
    (fun p ->
      if Vec.dim p <> dim then invalid_arg "Pointset.create: mixed dimensions";
      if not (Array.for_all Float.is_finite p) then
        invalid_arg "Pointset.create: non-finite coordinate")
    points;
  let st = Array.make (count * dim) 0. in
  Array.iteri (fun i p -> Vec.set_row st ~off:(i * dim) p) points;
  { st; offs = Array.init count (fun i -> i * dim); dim }

let of_storage ~dim st =
  if dim < 1 then invalid_arg "Pointset.of_storage: dim must be >= 1";
  let len = Array.length st in
  if len = 0 then invalid_arg "Pointset.of_storage: empty";
  if len mod dim <> 0 then invalid_arg "Pointset.of_storage: length not a multiple of dim";
  { st; offs = Array.init (len / dim) (fun i -> i * dim); dim }

let view ~storage ~offs ~dim =
  if dim < 1 then invalid_arg "Pointset.view: dim must be >= 1";
  if Array.length offs = 0 then invalid_arg "Pointset.view: empty";
  let len = Array.length storage in
  Array.iter
    (fun off ->
      if off < 0 || off + dim > len then invalid_arg "Pointset.view: offset out of storage")
    offs;
  { st = storage; offs = Array.copy offs; dim }

let n t = Array.length t.offs
let dim t = t.dim
let storage t = t.st
let row_offset t i = t.offs.(i)
let row_offsets t = t.offs
let point t i = Vec.of_row t.st ~off:t.offs.(i) ~dim:t.dim
let points t = Array.init (n t) (point t)
let coords_axis t axis =
  if axis < 0 || axis >= t.dim then invalid_arg "Pointset.coords_axis: axis out of range";
  Array.map (fun off -> t.st.(off + axis)) t.offs

let map_points f t = create (Array.map f (points t))

let subset t ~indices = { t with offs = Array.map (fun i -> t.offs.(i)) indices }

let filter_rows pred t =
  let keep = ref [] and kept = ref 0 in
  for i = n t - 1 downto 0 do
    if pred t.st t.offs.(i) then begin
      keep := t.offs.(i) :: !keep;
      incr kept
    end
  done;
  let offs = Array.make !kept 0 in
  List.iteri (fun j off -> offs.(j) <- off) !keep;
  { t with offs }

let filter pred t = filter_rows (fun st off -> pred (Vec.of_row st ~off ~dim:t.dim)) t

let ball_count t ~center ~radius =
  if Vec.dim center <> t.dim then invalid_arg "Pointset.ball_count: dimension mismatch";
  let r2 = radius *. radius in
  Kernel.count_within ~st:t.st ~offs:t.offs ~lo:0 ~hi:(n t - 1) ~q:center ~qoff:0
    ~dim:t.dim ~r2

let ball_points t ~center ~radius =
  let r2 = radius *. radius in
  points (filter_rows (fun st off -> Vec.dist_sq_to_row st ~off ~dim:t.dim center <= r2) t)

let capped_ball_count t ~cap ~center ~radius = min cap (ball_count t ~center ~radius)

let top_average counts ~k =
  let len = Array.length counts in
  if k <= 0 || k > len then invalid_arg "Pointset.top_average: bad k";
  let sorted = Array.copy counts in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. sorted.(i)
  done;
  !acc /. float_of_int k

let score_l_direct t ~cap ~radius =
  if radius < 0. then 0.
  else begin
    let r2 = radius *. radius in
    let count = n t in
    let counts =
      Array.init count (fun i ->
          Kernel.count_within ~st:t.st ~offs:t.offs ~lo:0 ~hi:(count - 1) ~q:t.st
            ~qoff:t.offs.(i) ~dim:t.dim ~r2)
    in
    Kernel.top_avg_capped ~counts ~off:0 ~len:count ~cap ~k:(min cap count)
  end

type backend =
  | Dense of float array array  (** per-point sorted distance rows *)
  | Tree of { tree : Kdtree.t; base : int; drift : int }
      (** [base]: size at the last full build; [drift]: rows inserted or
          removed incrementally since then. *)

type index = { ps : t; backend : backend }

(* One dense row: distances from point [i] to every point, sorted.  Scans
   the flat storage once per row; identical float sequence to the boxed
   per-point [Vec.dist] map it replaces. *)
let dense_row ps i =
  let count = n ps in
  let row = Array.make count 0. in
  Kernel.dists_to_rows ~st:ps.st ~offs:ps.offs ~n:count ~q:ps.st ~qoff:ps.offs.(i)
    ~dim:ps.dim ~out:row;
  Kernel.sort_floats row;
  row

(* Rows are independent; [fill lo hi] builds rows [lo, hi) and each domain
   takes one contiguous chunk, so the result (and every downstream query)
   is identical for any [domains]. *)
let fill_rows ~domains count fill =
  let domains = max 1 (min domains count) in
  if domains <= 1 then fill 0 count
  else begin
    let chunk = (count + domains - 1) / domains in
    List.init domains (fun k ->
        let lo = k * chunk and hi = min count ((k + 1) * chunk) in
        Domain.spawn (fun () -> fill lo hi))
    |> List.iter Domain.join
  end

let build_index ?(domains = 1) ps =
  let count = n ps in
  let rows = Array.make count [||] in
  fill_rows ~domains count (fun lo hi ->
      for i = lo to hi - 1 do
        rows.(i) <- dense_row ps i
      done);
  { ps; backend = Dense rows }

let build_tree_index ?domains ps =
  let tree = Kdtree.build_flat ?domains ~storage:ps.st ~offs:ps.offs ~dim:ps.dim () in
  { ps; backend = Tree { tree; base = n ps; drift = 0 } }

let default_dense_threshold = 4096

let auto_index ?(dense_threshold = default_dense_threshold) ?domains ps =
  if n ps <= dense_threshold then build_index ?domains ps else build_tree_index ?domains ps

(* Index maintenance across epochs (see the interface).  Dense rows stay
   bit-identical to a fresh [build_index] because every entry is
   [Kernel.dists_to_rows] on the same ordered pair (q = the row's own
   point) over the same coordinates, and distances are never NaN or -0.0
   (coordinates are finite): equal values are equal bits, so an ascending
   row is the unique arrangement of its multiset, whichever way it was
   assembled.  Both paths only read the previous index. *)

type maintenance = Incremental | Rebuilt

let rebuild_threshold base = max 64 (base / 2)

let merge_sorted (a : float array) (b : float array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.create_float (la + lb) in
  let i = ref 0 and j = ref 0 in
  for o = 0 to la + lb - 1 do
    if !j >= lb || (!i < la && Array.unsafe_get a !i <= Array.unsafe_get b !j) then begin
      Array.unsafe_set out o (Array.unsafe_get a !i);
      incr i
    end
    else begin
      Array.unsafe_set out o (Array.unsafe_get b !j);
      incr j
    end
  done;
  out

(* [row] minus the multiset [drop] (both ascending), in one pass.  Fails
   unless every entry of [drop] was found: that would mean the index does
   not hold the distances it claims to. *)
let remove_sorted (row : float array) (drop : float array) =
  let len = Array.length row and ld = Array.length drop in
  let keep = len - ld in
  let missing () = failwith "Pointset.retire_index: retired distance missing from its row" in
  let out = Array.create_float keep in
  let j = ref 0 and o = ref 0 in
  for p = 0 to len - 1 do
    let v = Array.unsafe_get row p in
    if !j < ld && v = Array.unsafe_get drop !j then incr j
    else begin
      if !o = keep then missing ();
      Array.unsafe_set out !o v;
      incr o
    end
  done;
  if !j <> ld then missing ();
  out

let append_index ?(dense_threshold = default_dense_threshold) ?(domains = 1) idx ps' =
  let old_n = n idx.ps and count = n ps' in
  if ps'.dim <> idx.ps.dim then invalid_arg "Pointset.append_index: dimension mismatch";
  if count <= old_n then invalid_arg "Pointset.append_index: no rows appended";
  let k = count - old_n in
  let new_offs = Array.sub ps'.offs old_n k in
  match idx.backend with
  | Dense rows when count <= dense_threshold ->
      let rows' = Array.make count [||] in
      fill_rows ~domains count (fun lo hi ->
          let fresh = Array.create_float k in
          for i = lo to hi - 1 do
            if i < old_n then begin
              Kernel.dists_to_rows ~st:ps'.st ~offs:new_offs ~n:k ~q:ps'.st
                ~qoff:ps'.offs.(i) ~dim:ps'.dim ~out:fresh;
              Kernel.sort_floats fresh;
              rows'.(i) <- merge_sorted rows.(i) fresh
            end
            else rows'.(i) <- dense_row ps' i
          done);
      ({ ps = ps'; backend = Dense rows' }, Incremental)
  | Tree { tree; base; drift } when drift + k <= rebuild_threshold base ->
      let tree = Kdtree.insert_bulk (Kdtree.with_storage tree ~storage:ps'.st) ~offs:new_offs in
      ({ ps = ps'; backend = Tree { tree; base; drift = drift + k } }, Incremental)
  | Dense _ | Tree _ -> (auto_index ~dense_threshold ~domains ps', Rebuilt)

let retire_index ?(dense_threshold = default_dense_threshold) ?(domains = 1) idx ps' ~from_ ~count =
  let old = idx.ps in
  let old_n = n old in
  let count' = old_n - count in
  if ps'.dim <> old.dim then invalid_arg "Pointset.retire_index: dimension mismatch";
  if from_ < 0 || count < 1 || from_ + count > old_n || n ps' <> count' then
    invalid_arg "Pointset.retire_index: range does not match the new view";
  match idx.backend with
  | Dense rows when count' <= dense_threshold ->
      let dead_offs = Array.sub old.offs from_ count in
      let rows' = Array.make count' [||] in
      fill_rows ~domains count' (fun lo hi ->
          let dead = Array.create_float count in
          for i' = lo to hi - 1 do
            let i = if i' < from_ then i' else i' + count in
            Kernel.dists_to_rows ~st:old.st ~offs:dead_offs ~n:count ~q:old.st
              ~qoff:old.offs.(i) ~dim:old.dim ~out:dead;
            Kernel.sort_floats dead;
            rows'.(i') <- remove_sorted rows.(i) dead
          done);
      ({ ps = ps'; backend = Dense rows' }, Incremental)
  | Tree { tree; base; drift } when drift + count <= rebuild_threshold base ->
      let dead = Hashtbl.create count in
      for i = from_ to from_ + count - 1 do
        Hashtbl.replace dead old.offs.(i) ()
      done;
      let tree =
        Kdtree.remove_bulk (Kdtree.with_storage tree ~storage:ps'.st) ~dead:(Hashtbl.mem dead)
      in
      ({ ps = ps'; backend = Tree { tree; base; drift = drift + count } }, Incremental)
  | Dense _ | Tree _ -> (auto_index ~dense_threshold ~domains ps', Rebuilt)

let index_is_dense idx = match idx.backend with Dense _ -> true | Tree _ -> false
let index_pointset idx = idx.ps

(* Number of entries in the sorted row that are <= radius. *)
let count_row row radius =
  let len = Array.length row in
  if len = 0 || row.(0) > radius then 0
  else begin
    (* Invariant: row.(lo) <= radius < row.(hi) (hi = len means none above). *)
    let lo = ref 0 and hi = ref len in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if row.(mid) <= radius then lo := mid else hi := mid
    done;
    !lo + 1
  end

let counts_within idx ~radius =
  if radius < 0. then Array.make (n idx.ps) 0
  else
    match idx.backend with
    | Dense rows -> Array.map (fun row -> count_row row radius) rows
    | Tree { tree; _ } -> Kdtree.counts_within_rows tree idx.ps.st ~offs:idx.ps.offs ~radius

let score_l idx ~cap ~radius =
  if radius < 0. then 0.
  else begin
    let counts = counts_within idx ~radius in
    Kernel.top_avg_capped ~counts ~off:0 ~len:(Array.length counts) ~cap
      ~k:(min cap (n idx.ps))
  end

(* Batched L: one score per candidate radius, equal to mapping [score_l]
   over [radii] but sharing the per-point work across all radii — binary
   searches over each sorted dense row, or a single multi-radius k-d
   traversal per point.  Counts are exact integers and the capped top-k
   average sums integers below 2^53, so every output is bit-identical to
   the per-radius path.  Radii blocks are bounded so the transient count
   matrix stays under ~32 MB regardless of |radii|·n. *)
let score_l_many idx ~cap ~radii =
  let nr = Array.length radii in
  let count = n idx.ps in
  let out = Array.make nr 0. in
  let ascending =
    let ok = ref true in
    for j = 1 to nr - 1 do
      if radii.(j) < radii.(j - 1) then ok := false
    done;
    !ok
  in
  if not ascending then
    (* Out-of-order radii: no batching contract; score one by one. *)
    Array.iteri (fun j r -> out.(j) <- score_l idx ~cap ~radius:r) radii
  else begin
    (* Negative radii score 0 (same guard as [score_l]). *)
    let first_nn = ref 0 in
    while !first_nn < nr && radii.(!first_nn) < 0. do
      out.(!first_nn) <- 0.;
      incr first_nn
    done;
    let k = min cap count in
    let block = max 1 (4_000_000 / count) in
    let j0 = ref !first_nn in
    while !j0 < nr do
      let bnr = min block (nr - !j0) in
      let rblock = Array.sub radii !j0 bnr in
      let counts = Array.make (bnr * count) 0 in
      (match idx.backend with
      | Dense rows ->
          for i = 0 to count - 1 do
            let row = rows.(i) in
            Kernel.counts_le_sorted ~row ~len:(Array.length row) ~radii:rblock ~nr:bnr
              ~out:counts ~stride:count ~col:i
          done
      | Tree { tree; _ } ->
          for i = 0 to count - 1 do
            Kdtree.count_within_row_many tree idx.ps.st ~off:idx.ps.offs.(i)
              ~radii:rblock ~out:counts ~stride:count ~col:i
          done);
      for j = 0 to bnr - 1 do
        out.(!j0 + j) <- Kernel.top_avg_capped ~counts ~off:(j * count) ~len:count ~cap ~k
      done;
      j0 := !j0 + bnr
    done
  end;
  out

let kth_neighbor_distance idx ~k i =
  if k <= 0 || k > n idx.ps then invalid_arg "Pointset.kth_neighbor_distance: bad k";
  match idx.backend with
  | Dense rows -> rows.(i).(k - 1)
  | Tree { tree; _ } ->
      (* The count around x_i is a step function of the radius jumping past
         k exactly at the k-th neighbor distance; bisect that jump. *)
      let ps = idx.ps in
      let off = ps.offs.(i) in
      let count r = Kdtree.count_within_row tree ps.st ~off ~radius:r in
      let norm_inf =
        let acc = ref 0. in
        for j = 0 to ps.dim - 1 do
          acc := Float.max !acc (Float.abs ps.st.(off + j))
        done;
        !acc
      in
      let lo = ref 0. and hi = ref (norm_inf +. (2. *. sqrt (float_of_int ps.dim))) in
      (* Ensure hi really covers k points (data may live outside [0,1]^d). *)
      while count !hi < k do
        hi := 2. *. Float.max 1. !hi
      done;
      for _ = 1 to 100 do
        let mid = 0.5 *. (!lo +. !hi) in
        if count mid >= k then hi := mid else lo := mid
      done;
      !hi
