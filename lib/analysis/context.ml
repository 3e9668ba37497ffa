open Turnpike_ir

type claims = {
  bypass_stores : (string * int) list;
  direct_ckpts : (string * int) list;
}

let no_claims = { bypass_stores = []; direct_ckpts = [] }

type iv_merge = {
  victim : Reg.t;
  anchor : Reg.t;
  ratio : int;
  iv_base : [ `Const of int | `Reg of Reg.t ];
  header : string;
}

type cache = {
  memo : bool;
  mutable cfg : Cfg.t option;
  mutable liveness : Liveness.t option;
  mutable dominance : Dominance.t option;
  mutable loops : Loop_info.t option;
  mutable coverage : Ckpt_coverage.t option;
  mutable regions : Regions_view.t option;
}

type t = {
  func : Func.t;
  entry_defined : Reg.Set.t;
  nregs : int;
  allow_virtual : bool;
  resilient : bool;
  sb_size : int;
  colors : int;
  rbb_size : int option;
  clq_entries : int option;
  wcdl : int option;
  recovery_exprs : (Reg.t * Recovery_expr.t) list;
  claims : claims option;
  iv_merges : iv_merge list;
  pass : string option;
  cache : cache;
}

let fresh_cache memo =
  {
    memo;
    cfg = None;
    liveness = None;
    dominance = None;
    loops = None;
    coverage = None;
    regions = None;
  }

let make ?(memo = true) ?(entry_defined = Reg.Set.empty) ?(nregs = 32)
    ?(allow_virtual = false) ?(resilient = false) ?(sb_size = 0)
    ?(colors = Layout.colors) ?rbb_size ?clq_entries ?wcdl
    ?(recovery_exprs = []) ?claims ?(iv_merges = []) ?pass func =
  {
    func;
    entry_defined;
    nregs;
    allow_virtual;
    resilient;
    sb_size;
    colors;
    rbb_size;
    clq_entries;
    wcdl;
    recovery_exprs;
    claims;
    iv_merges;
    pass;
    cache = fresh_cache memo;
  }

let for_func ?ctx func =
  match ctx with
  | None -> make func
  | Some t when t.func == func -> t
  | Some _ -> invalid_arg "Context.for_func: the context describes another function"

(* Which derived analyses a dirty-facet set staleness-kills. Liveness and
   checkpoint coverage also depend on the block bodies, so they die with
   [Instrs] (a dependence-preserving reorder keeps each register's
   events in order, hence both per-block summaries); the region table
   only reads boundary markers and block labels, so plain instruction
   edits leave it valid. *)
let drop_stale ~dirty c =
  let stale facets = not (Facet.Set.disjoint dirty (Facet.Set.of_list facets)) in
  if stale [ Facet.Cfg_shape ] then begin
    c.cfg <- None;
    c.dominance <- None;
    c.loops <- None
  end;
  if stale [ Facet.Cfg_shape; Facet.Instrs ] then begin
    c.liveness <- None;
    c.coverage <- None
  end;
  if stale [ Facet.Cfg_shape; Facet.Boundaries ] then c.regions <- None

let invalidate t dirty = drop_stale ~dirty t.cache

let advance ~dirty ?entry_defined ?allow_virtual ?recovery_exprs ?claims
    ?iv_merges ?pass t func =
  let dirty = if func != t.func then Facet.all else dirty in
  let c = t.cache in
  let cache =
    {
      memo = c.memo;
      cfg = c.cfg;
      liveness = c.liveness;
      dominance = c.dominance;
      loops = c.loops;
      coverage = c.coverage;
      regions = c.regions;
    }
  in
  drop_stale ~dirty cache;
  {
    t with
    func;
    entry_defined = Option.value entry_defined ~default:t.entry_defined;
    allow_virtual = Option.value allow_virtual ~default:t.allow_virtual;
    recovery_exprs = Option.value recovery_exprs ~default:t.recovery_exprs;
    claims = (match claims with Some _ -> claims | None -> t.claims);
    iv_merges = Option.value iv_merges ~default:t.iv_merges;
    pass;
    cache;
  }

let with_pass t pass = { t with pass }

let with_machine ?rbb_size ?clq_entries ?wcdl t =
  {
    t with
    rbb_size = (match rbb_size with Some _ -> rbb_size | None -> t.rbb_size);
    clq_entries = (match clq_entries with Some _ -> clq_entries | None -> t.clq_entries);
    wcdl = (match wcdl with Some _ -> wcdl | None -> t.wcdl);
  }

(* Look an analysis up in the cache, computing (and, when memoizing,
   storing) it on a miss. *)
let cached get set t compute =
  match get t.cache with
  | Some v -> v
  | None ->
    let v = compute () in
    if t.cache.memo then set t.cache v;
    v

let cfg t =
  cached (fun c -> c.cfg) (fun c v -> c.cfg <- Some v) t (fun () -> Cfg.build t.func)

let liveness t =
  cached (fun c -> c.liveness) (fun c v -> c.liveness <- Some v) t (fun () ->
      Liveness.compute (cfg t) t.func)

let dominance t =
  cached (fun c -> c.dominance) (fun c v -> c.dominance <- Some v) t (fun () ->
      Dominance.compute (cfg t))

let loops t =
  cached (fun c -> c.loops) (fun c v -> c.loops <- Some v) t (fun () ->
      Loop_info.compute (cfg t) (dominance t))

let coverage t =
  cached (fun c -> c.coverage) (fun c v -> c.coverage <- Some v) t (fun () ->
      Ckpt_coverage.compute (cfg t) t.func)

let regions t =
  cached (fun c -> c.regions) (fun c v -> c.regions <- Some v) t (fun () ->
      Regions_view.compute (cfg t) (fun () -> dominance t) t.func)
