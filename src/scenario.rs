//! Scenario files: a small line-oriented language for driving the decision
//! procedures from text, used by the `viewcap-cli` binary and handy in
//! tests and demos.
//!
//! ```text
//! # optionally prove catalog-order independence: buffer the following
//! # `rel` lines and declare them in a seed-shuffled order (attribute
//! # interning order shuffled too). Verdicts — and persisted-cache hits —
//! # must not change, because fingerprints are content-addressed.
//! catalog permute 7
//!
//! # schema
//! rel R(A, B, C)
//!
//! # views: name { view_relation = expression; ... }
//! view V {
//!   Joined = pi{A,B}(R) * pi{B,C}(R)
//! }
//! view W {
//!   Left  = pi{A,B}(R)
//!   Right = pi{B,C}(R)
//! }
//!
//! # questions
//! check equivalent V W
//! check dominates V W
//! check member V pi{A}(R)
//! nonredundant V
//! simplify V
//! frontier V 2
//!
//! # many questions at once: deduplicated, cached, run in parallel
//! batch {
//!   check equivalent V W
//!   check member V pi{A}(R)
//!   check member W pi{A}(R)
//! }
//!
//! # catalog edits: add / replace / drop one view's defining queries
//! edit V {
//!   Joined = R            # replace (or add) the pair named Joined
//!   drop Extra            # remove the pair named Extra
//! }
//!
//! # several edits as one transaction: each standing check invalidates
//! # once however many edits touch it
//! txn {
//!   edit V {
//!     Joined = pi{A,B}(R)
//!   }
//!   edit W {
//!     drop Right
//!   }
//! }
//!
//! # re-decide the standing workload incrementally: only checks touching
//! # edited views recompute, everything else is reused
//! recheck
//!
//! # capacity-frontier diff of two view versions at atom bound 2:
//! # what V can answer that W cannot, and vice versa
//! diff V W 2
//! ```
//!
//! Execution is deterministic; every command appends lines to the report.
//! All `check`s (single or batched) — and the `simplify` /
//! `nonredundant` normalization commands — route through the
//! [`viewcap_engine::Engine`], so repeated questions — within a batch or
//! across the whole scenario — are answered from the verdict cache;
//! `frontier` and `diff` enumerate through the engine's context pool
//! ([`viewcap_engine::Engine::members`]), sharing each view's candidate
//! space with the checks posed against it. Every
//! decided check also joins the scenario's *standing workload*
//! ([`viewcap_engine::DeltaWorkload`]): `edit` blocks invalidate exactly
//! the standing checks that touch the edited view, and `recheck` re-poses
//! only those, reporting how much was reused. The report is byte-identical
//! for every `--jobs` setting.
//!
//! Replacing a defining query with one of a different target scheme mints
//! a fresh catalog relation (the display name gains a `$n` suffix), since
//! a relation name's type is fixed at declaration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use viewcap_base::{Catalog, RelId};
use viewcap_core::{frontier_diff, ClosureMember, Query, View};
use viewcap_engine::{
    CacheStats, Check, Decision, DeltaWorkload, Engine, EnumStats, Request, Verdict, Workload,
};
use viewcap_expr::display::{display_expr, display_scheme};
use viewcap_expr::parse_expr;
use viewcap_obs::MetricsSnapshot;

/// Execution options for [`run_scenario_with`].
#[derive(Clone, Debug)]
pub struct ScenarioOptions {
    /// Worker threads for `batch` blocks (`0` = available parallelism).
    pub jobs: usize,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions { jobs: 1 }
    }
}

/// A parsed-and-executed scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Human-readable report, one block per command.
    pub report: String,
    /// Number of `check` commands that answered "yes".
    pub yes: usize,
    /// Number of `check` commands that answered "no".
    pub no: usize,
    /// Verdict-cache counters accumulated over the run.
    pub stats: CacheStats,
    /// Candidate-space reuse counters from the engine's context pool.
    pub enum_stats: EnumStats,
    /// Telemetry registry snapshot taken as the run finished. Empty
    /// unless [`viewcap_obs::set_enabled`] was on; counter values (as
    /// opposed to the timing histograms) are deterministic for a
    /// scenario whatever the `--jobs` setting. The registry is
    /// process-global and is *not* reset here — callers comparing runs
    /// call [`viewcap_obs::reset`] between them.
    pub metrics: MetricsSnapshot,
    /// The catalog as the scenario left it — what cache persistence needs
    /// to resolve natively computed witnesses to names
    /// ([`viewcap_engine::save_cache`]).
    pub catalog: Catalog,
}

impl ScenarioOutcome {
    /// Every diagnostic counter of the run behind one accessor: the
    /// verdict-cache counters, the candidate-space enumeration counters,
    /// and the telemetry snapshot. `Display` renders exactly the stderr
    /// block the CLI prints under `--stats` (`-- cache: …` /
    /// `-- enumeration: …`), so drivers fold diagnostics in without
    /// re-assembling format strings by hand.
    pub fn run_stats(&self) -> RunStats<'_> {
        RunStats {
            cache: &self.stats,
            enumeration: &self.enum_stats,
            metrics: &self.metrics,
        }
    }
}

/// Borrowed bundle of a run's diagnostic counters
/// ([`ScenarioOutcome::run_stats`]).
#[derive(Clone, Copy, Debug)]
pub struct RunStats<'a> {
    /// Verdict-cache counters accumulated over the run.
    pub cache: &'a CacheStats,
    /// Candidate-space reuse counters from the engine's context pools.
    pub enumeration: &'a EnumStats,
    /// The telemetry registry snapshot taken as the run finished (empty
    /// unless [`viewcap_obs::set_enabled`] was on).
    pub metrics: &'a MetricsSnapshot,
}

impl std::fmt::Display for RunStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "-- cache: {}", self.cache)?;
        writeln!(f, "-- enumeration: {}", self.enumeration)
    }
}

/// Errors from scenario parsing or execution.
#[derive(Debug)]
pub struct ScenarioError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// A scenario view plus the *logical* (as-declared) name of each defining
/// pair. Catalog relation names can drift when an edit changes a pair's
/// target scheme (a fresh `name$n` relation is minted); edits keep
/// addressing pairs by their logical names regardless.
struct NamedView {
    view: View,
    logical: Vec<String>,
}

struct Runner<'a> {
    catalog: Catalog,
    views: BTreeMap<String, NamedView>,
    engine: &'a Engine,
    delta: DeltaWorkload,
    jobs: usize,
    report: String,
    yes: usize,
    no: usize,
    /// Each standing check's rendered line and YES flag, indexed by its
    /// position in `delta` (positions only append or update in place).
    standing_lines: Vec<(String, bool)>,
    /// Armed by `catalog permute SEED`: the initial run of `rel`
    /// declarations is buffered and declared in a seed-determined order.
    permute_seed: Option<u64>,
    /// Buffered `(name, attrs)` declarations awaiting the permuted flush.
    rel_buffer: Vec<(String, Vec<String>)>,
}

/// Run a scenario from source text with default options (sequential).
pub fn run_scenario(src: &str) -> Result<ScenarioOutcome, ScenarioError> {
    run_scenario_with(src, &ScenarioOptions::default())
}

/// Run a scenario from source text with a fresh, unbounded engine.
pub fn run_scenario_with(
    src: &str,
    options: &ScenarioOptions,
) -> Result<ScenarioOutcome, ScenarioError> {
    let engine = Engine::new();
    run_scenario_with_engine(src, options, &engine)
}

/// Run a scenario against a caller-provided engine — one with a bounded
/// and/or disk-loaded verdict cache, or one shared across scenario runs.
/// The cache is catalog-content-addressed: reuse is sound whenever the
/// scenarios declare the same relations (same names, same schemes), in
/// *any* declaration order.
pub fn run_scenario_with_engine(
    src: &str,
    options: &ScenarioOptions,
    engine: &Engine,
) -> Result<ScenarioOutcome, ScenarioError> {
    let mut runner = Runner {
        catalog: Catalog::new(),
        views: BTreeMap::new(),
        engine,
        delta: DeltaWorkload::new(),
        jobs: options.jobs,
        report: String::new(),
        yes: 0,
        no: 0,
        standing_lines: Vec::new(),
        permute_seed: None,
        rel_buffer: Vec::new(),
    };
    let err = |line: usize, msg: String| ScenarioError { line, msg };

    let lines: Vec<Line<'_>> = src
        .lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, strip_comment(raw).trim()))
        .filter(|(_, line)| !line.is_empty())
        .collect();
    let mut i = 0usize;
    while let Some(&(lineno, line)) = lines.get(i) {
        i += 1;
        let (head, rest) = split_word(line);
        // Any command other than `rel` flushes buffered (to-be-permuted)
        // declarations first, so views and checks see a complete catalog.
        if head != "rel" {
            runner.flush_rels().map_err(|m| err(lineno, m))?;
        }
        match head {
            "rel" => runner.cmd_rel(rest).map_err(|m| err(lineno, m))?,
            "catalog" => runner.cmd_catalog(rest).map_err(|m| err(lineno, m))?,
            "view" | "edit" => {
                let name = block_name(head, line, rest).map_err(|m| err(lineno, m))?;
                let body = block(&lines, &mut i)
                    .ok_or_else(|| err(lineno, format!("{head} `{name}` is never closed")))?;
                match head {
                    "view" => runner.cmd_view(name, body),
                    _ => runner.cmd_edit(lineno, name, body),
                }
                .map_err(|(l, m)| err(l, m))?;
            }
            "check" => runner.cmd_check(rest).map_err(|m| err(lineno, m))?,
            "recheck" => {
                if !rest.is_empty() {
                    return Err(err(lineno, "recheck takes no arguments".into()));
                }
                runner.cmd_recheck().map_err(|m| err(lineno, m))?;
            }
            "batch" | "txn" => {
                if rest != "{" {
                    return Err(err(lineno, format!("expected `{head} {{`")));
                }
                let body = match head {
                    "batch" => block(&lines, &mut i),
                    _ => txn_block(&lines, &mut i),
                }
                .ok_or_else(|| err(lineno, format!("{head} block is never closed")))?;
                match head {
                    "batch" => runner.cmd_batch(body),
                    _ => runner.cmd_txn(lineno, body),
                }
                .map_err(|(l, m)| err(l, m))?;
            }
            "nonredundant" => runner.cmd_nonredundant(rest).map_err(|m| err(lineno, m))?,
            "simplify" => runner.cmd_simplify(rest).map_err(|m| err(lineno, m))?,
            "frontier" => runner.cmd_frontier(rest).map_err(|m| err(lineno, m))?,
            "diff" => runner.cmd_diff(rest).map_err(|m| err(lineno, m))?,
            other => return Err(err(lineno, format!("unknown command `{other}`"))),
        }
    }
    runner
        .flush_rels()
        .map_err(|m| err(src.lines().count(), m))?;
    Ok(ScenarioOutcome {
        report: runner.report,
        yes: runner.yes,
        no: runner.no,
        stats: runner.engine.cache_stats(),
        enum_stats: runner.engine.enum_stats(),
        metrics: viewcap_obs::snapshot(),
        catalog: runner.catalog,
    })
}

/// The report line for one decided check, and whether it answered yes —
/// the one rendering `check`, `batch` and `recheck` share.
fn render_check(
    catalog: &Catalog,
    label: &str,
    check: &Check,
    decision: &Decision,
) -> (String, bool) {
    match (&*decision.verdict, check) {
        (Verdict::Member(Some(proof)), Check::Member { view, .. }) => {
            let names: Vec<RelId> = decision
                .member_witness_names(view, catalog)
                .unwrap_or_else(|| view.schema());
            let skel = proof.skeleton_with_names(&names);
            let line = format!("{label}: YES via {}", display_expr(&skel, catalog));
            (line, true)
        }
        (verdict, _) => {
            let yes = verdict.is_yes();
            let answer = if yes { "YES" } else { "NO" };
            (format!("{label}: {answer}"), yes)
        }
    }
}

/// A nonempty source line, comment stripped and trimmed, with its 1-based
/// line number.
type Line<'s> = (usize, &'s str);

/// The lines of a block up to its first `}`, advancing `i` past that
/// `}`. `None` if the block never closes.
fn block<'a, 's>(lines: &'a [Line<'s>], i: &mut usize) -> Option<&'a [Line<'s>]> {
    let start = *i;
    let len = lines[start..].iter().position(|&(_, l)| l == "}")?;
    *i = start + len + 1;
    Some(&lines[start..start + len])
}

/// Like [`block`], but brace-depth aware: lines opening nested blocks
/// (ending in `{`) and their closing `}` lines stay in the body; only the
/// `}` matching the outer opener ends it. `txn` blocks need this — their
/// bodies hold whole `edit NAME { ... }` blocks.
fn txn_block<'a, 's>(lines: &'a [Line<'s>], i: &mut usize) -> Option<&'a [Line<'s>]> {
    let start = *i;
    let mut depth = 0usize;
    for (len, &(_, line)) in lines[start..].iter().enumerate() {
        if line == "}" {
            if depth == 0 {
                *i = start + len + 1;
                return Some(&lines[start..start + len]);
            }
            depth -= 1;
        } else if line.ends_with('{') {
            depth += 1;
        }
    }
    None
}

/// The NAME of a `view NAME {` or `edit NAME {` header `line`, whose
/// words after `kind` are `rest`.
fn block_name<'s>(kind: &str, line: &str, rest: &'s str) -> Result<&'s str, String> {
    let name = rest.trim_end_matches('{').trim();
    if name.is_empty() {
        let what = if kind == "view" {
            "a name"
        } else {
            "a view name"
        };
        return Err(format!("{kind} needs {what}"));
    }
    if !line.ends_with('{') {
        return Err(format!("expected `{{` to open the {kind} block"));
    }
    Ok(name)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    }
}

fn atom_bound(k_src: &str) -> Result<usize, String> {
    k_src
        .trim()
        .parse()
        .map_err(|_| format!("bad atom bound `{k_src}`"))
}

fn split_word(line: &str) -> (&str, &str) {
    match line.split_once(char::is_whitespace) {
        Some((a, b)) => (a, b.trim()),
        None => (line, ""),
    }
}

impl Runner<'_> {
    fn view(&self, name: &str) -> Result<&View, String> {
        self.views
            .get(name)
            .map(|nv| &nv.view)
            .ok_or_else(|| format!("unknown view `{name}`"))
    }

    fn cmd_rel(&mut self, rest: &str) -> Result<(), String> {
        // `R(A, B, C)`
        let (name, args) = rest
            .split_once('(')
            .ok_or_else(|| "expected `rel NAME(ATTRS…)`".to_owned())?;
        let args = args
            .strip_suffix(')')
            .ok_or_else(|| "missing `)`".to_owned())?;
        let attrs: Vec<String> = args
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect();
        if attrs.is_empty() {
            return Err("relations need at least one attribute".into());
        }
        let name = name.trim().to_owned();
        if self.permute_seed.is_some() {
            // Declaration deferred to the permuted flush; duplicate names
            // would only error there, so reject them eagerly here.
            if self.rel_buffer.iter().any(|(n, _)| *n == name) {
                return Err(format!("relation name `{name}` is already in use"));
            }
            self.rel_buffer.push((name, attrs));
            return Ok(());
        }
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        self.catalog
            .relation(&name, &attr_refs)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(self.report, "rel {name} declared");
        Ok(())
    }

    /// `catalog permute SEED` — arm permuted declaration: the following
    /// run of `rel` lines is buffered and, at the first non-`rel` command,
    /// declared in a seed-determined order with each relation's attribute
    /// list shuffled too. Catalog *content* is unchanged (the same
    /// relations with the same schemes exist under any declaration order);
    /// what changes is the minting order of `RelId`s and `AttrId`s — which
    /// content-addressed fingerprints must not observe. The directive
    /// exists to prove exactly that: a scenario prefixed with it must
    /// report identical verdicts and hit the same persisted cache.
    fn cmd_catalog(&mut self, rest: &str) -> Result<(), String> {
        let (sub, arg) = split_word(rest);
        if sub != "permute" {
            return Err(format!("unknown catalog directive `{sub}`"));
        }
        if self.catalog.rel_count() > 0 || self.permute_seed.is_some() {
            return Err("catalog permute must precede every rel declaration".into());
        }
        let seed: u64 = match arg.trim() {
            "" => 1,
            n => n
                .parse()
                .map_err(|_| format!("bad permutation seed `{n}`"))?,
        };
        self.permute_seed = Some(seed);
        Ok(())
    }

    /// Declare the buffered `rel`s in the seed-determined permuted order.
    /// Report lines keep the original textual order, so permuted and
    /// unpermuted runs of the same declarations stay line-comparable.
    fn flush_rels(&mut self) -> Result<(), String> {
        let Some(seed) = self.permute_seed.take() else {
            return Ok(());
        };
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let buffered = std::mem::take(&mut self.rel_buffer);
        let mut order: Vec<usize> = (0..buffered.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (lcg() % (i as u64 + 1)) as usize);
        }
        for &i in &order {
            let (name, attrs) = &buffered[i];
            let mut attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            for j in (1..attrs.len()).rev() {
                attrs.swap(j, (lcg() % (j as u64 + 1)) as usize);
            }
            self.catalog
                .relation(name, &attrs)
                .map_err(|e| e.to_string())?;
        }
        for (name, _) in &buffered {
            let _ = writeln!(self.report, "rel {name} declared");
        }
        let _ = writeln!(
            self.report,
            "catalog: declaration order permuted over {} relation(s) (seed {seed})",
            buffered.len()
        );
        Ok(())
    }

    fn cmd_view(&mut self, name: &str, body: &[Line<'_>]) -> Result<(), (usize, String)> {
        let mut pairs: Vec<(viewcap_expr::Expr, RelId)> = Vec::new();
        let mut logical: Vec<String> = Vec::new();
        for (lineno, entry) in body {
            let (vname, src) = entry
                .split_once('=')
                .ok_or((*lineno, "expected `Name = expression`".to_owned()))?;
            let expr =
                parse_expr(src.trim(), &self.catalog).map_err(|e| (*lineno, e.to_string()))?;
            let q = Query::from_expr(expr.clone(), &self.catalog);
            let rel = self
                .catalog
                .add_relation(vname.trim(), q.trs())
                .map_err(|e| (*lineno, e.to_string()))?;
            pairs.push((expr, rel));
            logical.push(vname.trim().to_owned());
        }
        let view = View::from_exprs(pairs, &self.catalog)
            .map_err(|e| (body.first().map_or(0, |(l, _)| *l), e.to_string()))?;
        // Warm the content-key memos now: every later check clones this
        // view, and clones inherit the filled caches, so fingerprinting a
        // whole workload against it costs one canonicalization per query.
        let _ = viewcap_engine::view_fingerprint(&view, &self.catalog);
        let _ = writeln!(
            self.report,
            "view {name} defined with {} relation(s)",
            view.len()
        );
        self.views
            .insert(name.to_owned(), NamedView { view, logical });
        Ok(())
    }

    /// Parse the tail of a `check` command into an engine [`Check`] plus
    /// its display label.
    fn parse_check(&self, rest: &str) -> Result<(String, Check), String> {
        let (kind, args) = split_word(rest);
        match kind {
            "equivalent" => {
                let (a, b) = split_word(args);
                Ok((
                    format!("check equivalent {a} {b}"),
                    Check::Equivalent {
                        left: self.view(a)?.clone(),
                        right: self.view(b)?.clone(),
                    },
                ))
            }
            "dominates" => {
                let (a, b) = split_word(args);
                Ok((
                    format!("check dominates {a} {b}"),
                    Check::Dominates {
                        dominator: self.view(a)?.clone(),
                        dominated: self.view(b)?.clone(),
                    },
                ))
            }
            "member" => {
                let (vname, expr_src) = split_word(args);
                let view = self.view(vname)?.clone();
                let expr = parse_expr(expr_src, &self.catalog).map_err(|e| e.to_string())?;
                Ok((
                    format!("check member {vname} {expr_src}"),
                    Check::Member {
                        view,
                        goal: Query::from_expr(expr, &self.catalog),
                    },
                ))
            }
            other => Err(format!("unknown check `{other}`")),
        }
    }

    /// Append one report line and count its answer.
    fn emit(&mut self, line: &str, yes: bool) {
        self.report.push_str(line);
        self.report.push('\n');
        if yes {
            self.yes += 1;
        } else {
            self.no += 1;
        }
    }

    /// Report a freshly decided check and enter it into the standing
    /// workload, storing its rendered line at its standing position so
    /// `recheck` can write it again without re-rendering.
    fn record_standing(&mut self, label: String, check: Check, decision: Decision) {
        let (line, yes) = render_check(&self.catalog, &label, &check, &decision);
        self.emit(&line, yes);
        let i = self
            .delta
            .push_decided(label, check, decision, &self.catalog);
        if i == self.standing_lines.len() {
            self.standing_lines.push((line, yes));
        } else {
            self.standing_lines[i] = (line, yes);
        }
    }

    fn cmd_check(&mut self, rest: &str) -> Result<(), String> {
        let (label, check) = self.parse_check(rest)?;
        let decision = self
            .engine
            .decide(&check, &self.catalog)
            .map_err(|e| e.to_string())?;
        self.record_standing(label, check, decision);
        Ok(())
    }

    /// Run a `batch { ... }` block through the engine: every line is a
    /// `check` command; the block is deduplicated, answered from the
    /// verdict cache where possible, and the rest computed in parallel.
    fn cmd_batch(&mut self, body: &[Line<'_>]) -> Result<(), (usize, String)> {
        let mut workload = Workload::new();
        for (lineno, entry) in body {
            let (head, rest) = split_word(entry);
            if head != "check" {
                return Err((
                    *lineno,
                    format!("batch blocks only hold `check` commands, got `{head}`"),
                ));
            }
            let (label, check) = self.parse_check(rest).map_err(|m| (*lineno, m))?;
            workload.push(label, check);
        }
        let outcome = self.engine.run_batch(&workload, &self.catalog, self.jobs);
        // `body` and `workload.requests` are zipped 1:1, so errors point at
        // the failing check's own line.
        for ((lineno, _), (request, result)) in body
            .iter()
            .zip(workload.requests.into_iter().zip(outcome.results))
        {
            let decision = result.map_err(|e| (*lineno, e.to_string()))?;
            self.record_standing(request.label, request.check, decision);
        }
        let _ = writeln!(
            self.report,
            "batch: {} check(s), {} distinct, {} answered from cache, {} executed",
            outcome.total, outcome.distinct, outcome.cache_hits, outcome.executed
        );
        Ok(())
    }

    /// Apply an `edit NAME { ... }` block: add, replace, or drop defining
    /// pairs of one view, then invalidate exactly the standing checks that
    /// touch it.
    fn cmd_edit(
        &mut self,
        lineno: usize,
        name: &str,
        body: &[Line<'_>],
    ) -> Result<(), (usize, String)> {
        let edit = [self.apply_edit(lineno, name, body)?];
        let invalidated = self.delta.replace_views(&edit, &self.catalog);
        let _ = writeln!(
            self.report,
            "edit {name}: {} defining relation(s), {invalidated} standing check(s) invalidated",
            edit[0].1.len()
        );
        Ok(())
    }

    /// Parse and apply one edit body to the named view, updating the view
    /// table and returning the `(old, new)` version pair — standing-check
    /// invalidation is the caller's job (`cmd_edit` invalidates per edit,
    /// `cmd_txn` batches one sweep over the whole transaction).
    fn apply_edit(
        &mut self,
        lineno: usize,
        name: &str,
        body: &[Line<'_>],
    ) -> Result<(View, View), (usize, String)> {
        let named = self
            .views
            .get(name)
            .ok_or_else(|| (lineno, format!("unknown view `{name}`")))?;
        let old = named.view.clone();
        let mut pairs: Vec<(Query, RelId)> = old.pairs().to_vec();
        let mut logical = named.logical.clone();
        for (ln, entry) in body {
            if let Some(dropped) = entry.strip_prefix("drop ") {
                let dname = dropped.trim();
                let pos = logical.iter().position(|l| l == dname).ok_or_else(|| {
                    (
                        *ln,
                        format!("view `{name}` has no defining relation `{dname}`"),
                    )
                })?;
                pairs.remove(pos);
                logical.remove(pos);
            } else {
                let (vname, src) = entry.split_once('=').ok_or((
                    *ln,
                    "expected `Name = expression` or `drop Name`".to_owned(),
                ))?;
                let vname = vname.trim();
                let expr =
                    parse_expr(src.trim(), &self.catalog).map_err(|e| (*ln, e.to_string()))?;
                let q = Query::from_expr(expr, &self.catalog);
                match logical.iter().position(|l| l == vname) {
                    Some(pos) => {
                        // Replace, addressed by the pair's logical name.
                        let rel = self
                            .pair_relation(name, vname, &q, Some(pairs[pos].1))
                            .map_err(|m| (*ln, m))?;
                        pairs[pos] = (q, rel);
                    }
                    None => {
                        // Add a new defining pair.
                        let rel = self
                            .pair_relation(name, vname, &q, None)
                            .map_err(|m| (*ln, m))?;
                        pairs.push((q, rel));
                        logical.push(vname.to_owned());
                    }
                }
            }
        }
        if pairs.is_empty() {
            return Err((
                lineno,
                format!("edit would leave view `{name}` with no defining queries"),
            ));
        }
        let new_view = View::new(pairs, &self.catalog).map_err(|e| (lineno, e.to_string()))?;
        // Warm the content-key memos, as `cmd_view` does.
        let _ = viewcap_engine::view_fingerprint(&new_view, &self.catalog);
        self.views.insert(
            name.to_owned(),
            NamedView {
                view: new_view.clone(),
                logical,
            },
        );
        Ok((old, new_view))
    }

    /// Apply a `txn { edit NAME { ... } ... }` block: every edit is applied
    /// to the view table in order, then the standing workload is
    /// invalidated in *one* sweep ([`DeltaWorkload::replace_views`]) — each
    /// touched check is invalidated once however many edits hit it.
    /// Verdicts and witnesses after the next `recheck` are byte-identical
    /// to the same edits applied as individual `edit` blocks; only the
    /// invalidation accounting differs.
    fn cmd_txn(&mut self, lineno: usize, body: &[Line<'_>]) -> Result<(), (usize, String)> {
        let mut edits: Vec<(View, View)> = Vec::new();
        let mut j = 0usize;
        while let Some(&(ln, entry)) = body.get(j) {
            j += 1;
            let (head, rest) = split_word(entry);
            if head != "edit" {
                return Err((
                    ln,
                    format!("txn blocks only hold `edit` blocks, got `{head}`"),
                ));
            }
            let name = block_name(head, entry, rest).map_err(|m| (ln, m))?;
            let inner = block(body, &mut j)
                .ok_or_else(|| (ln, format!("edit `{name}` is never closed")))?;
            let (old, new) = self.apply_edit(ln, name, inner)?;
            let _ = writeln!(
                self.report,
                "txn edit {name}: {} defining relation(s)",
                new.len()
            );
            edits.push((old, new));
        }
        if edits.is_empty() {
            return Err((lineno, "txn block holds no edits".into()));
        }
        let invalidated = self.delta.replace_views(&edits, &self.catalog);
        let _ = writeln!(
            self.report,
            "txn: {} edit(s), {invalidated} standing check(s) invalidated",
            edits.len()
        );
        Ok(())
    }

    /// The catalog relation to bind a pair named `logical` with query `q`
    /// in the view `view_name`: keep `current` when its type already
    /// matches; else reuse the catalog relation called `logical` when its
    /// type matches *and no other view uses it* (so a reverted edit — or a
    /// re-added dropped pair — gets its original name back); else mint a
    /// fresh `logical$n` of the right type (a relation name's type is
    /// fixed at declaration). A name serving as another view's defining
    /// relation is rejected, mirroring the duplicate error a `view` block
    /// would raise.
    fn pair_relation(
        &mut self,
        view_name: &str,
        logical: &str,
        q: &Query,
        current: Option<RelId>,
    ) -> Result<RelId, String> {
        let trs = q.trs();
        if let Some(rel) = current {
            if *self.catalog.scheme_of(rel) == trs {
                return Ok(rel);
            }
        }
        match self.catalog.lookup_rel(logical) {
            Ok(rel) if self.rel_in_other_view(rel, view_name) => Err(format!(
                "relation `{logical}` is a defining relation of another view"
            )),
            Ok(rel) if *self.catalog.scheme_of(rel) == trs => Ok(rel),
            Ok(_) => Ok(self.catalog.fresh_relation(logical, trs)),
            Err(_) => Ok(self
                .catalog
                .add_relation(logical, trs)
                .expect("lookup said the name is free")),
        }
    }

    /// Is `rel` currently a defining relation of any view other than
    /// `this`?
    fn rel_in_other_view(&self, rel: RelId, this: &str) -> bool {
        self.views
            .iter()
            .any(|(n, nv)| n != this && nv.view.schema().contains(&rel))
    }

    /// Re-decide the standing workload: reuse retained decisions, re-pose
    /// only the checks invalidated by `edit` blocks.
    ///
    /// Every standing position holds the line its check last rendered to
    /// (`standing_lines`). A reused decision is unchanged, and so are its
    /// operand views and the catalog names it prints, so its stored line is
    /// exactly what rendering it again would produce; only the positions
    /// the run recomputed ([`viewcap_engine::DeltaOutcome::recomputed_at`])
    /// are rendered again before every stored line is written.
    fn cmd_recheck(&mut self) -> Result<(), String> {
        let outcome = self.delta.run(self.engine, &self.catalog, self.jobs);
        let requests: Vec<&Request> = self.delta.requests().collect();
        for &i in &outcome.recomputed_at {
            let decision = outcome.results[i].as_ref().map_err(|e| e.to_string())?;
            let request = requests[i];
            self.standing_lines[i] =
                render_check(&self.catalog, &request.label, &request.check, decision);
        }
        let lines = std::mem::take(&mut self.standing_lines);
        for (line, yes) in &lines {
            self.emit(line, *yes);
        }
        self.standing_lines = lines;
        let _ = writeln!(
            self.report,
            "recheck: {} check(s), {} reused, {} recomputed ({} from verdict cache, {} executed)",
            outcome.total, outcome.reused, outcome.recomputed, outcome.cache_hits, outcome.executed
        );
        Ok(())
    }

    fn cmd_nonredundant(&mut self, rest: &str) -> Result<(), String> {
        let name = rest.trim();
        let view = self.view(name)?.clone();
        let decision = self
            .engine
            .nonredundant(&view, &self.catalog)
            .map_err(|e| e.to_string())?;
        let Verdict::Nonredundant(kept) = &*decision.verdict else {
            return Err("nonredundant returned a non-normalization verdict".into());
        };
        let _ = writeln!(
            self.report,
            "nonredundant {name}: {} -> {} relation(s)",
            view.len(),
            kept.len()
        );
        for &i in kept {
            let rel = view
                .pairs()
                .get(i as usize)
                .map(|(_, r)| *r)
                .ok_or_else(|| format!("kept index {i} out of range"))?;
            let _ = writeln!(self.report, "  kept {}", self.catalog.rel_name(rel));
        }
        Ok(())
    }

    fn cmd_simplify(&mut self, rest: &str) -> Result<(), String> {
        let name = rest.trim();
        let view = self.view(name)?.clone();
        let decision = self
            .engine
            .simplify(&view, &self.catalog)
            .map_err(|e| e.to_string())?;
        let Verdict::Simplified(schemes) = &*decision.verdict else {
            return Err("simplify returned a non-normalization verdict".into());
        };
        let _ = writeln!(
            self.report,
            "simplify {name}: {} -> {} relation(s)",
            view.len(),
            schemes.len()
        );
        // Mint the simplified view-schema relations exactly as the cold
        // `simplify_view` path did, so cached (warm) replays evolve the
        // catalog — and render the report — byte-identically.
        for trs in schemes {
            self.catalog.fresh_relation("simp", trs.clone());
            let _ = writeln!(
                self.report,
                "  simple query with TRS {}",
                display_scheme(trs, &self.catalog)
            );
        }
        Ok(())
    }

    fn cmd_frontier(&mut self, rest: &str) -> Result<(), String> {
        let (vname, k_src) = split_word(rest);
        let view = self.view(vname)?;
        let k = atom_bound(k_src)?;
        let members = self
            .engine
            .members(view, k, &self.catalog)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(
            self.report,
            "frontier {vname} {k}: {} distinct member(s)",
            members.len()
        );
        self.write_members("", &members);
        Ok(())
    }

    /// One `TRS … (construction size n)` report line per member, each
    /// marked with `sign`.
    fn write_members(&mut self, sign: &str, members: &[ClosureMember]) {
        for m in members {
            let _ = writeln!(
                self.report,
                "  {sign}TRS {} (construction size {})",
                display_scheme(&m.query.trs(), &self.catalog),
                m.construction_size
            );
        }
    }

    /// `diff A B K` — the capacity-frontier diff of two view versions at
    /// atom bound `K`: which bounded frontier members `A` exposes and `B`
    /// does not (`-` lines, capabilities lost going A→B) and vice versa
    /// (`+` lines, gained). Equals the set difference of two `frontier`
    /// sweeps, each through the engine's pooled context for its view, so
    /// repeated or growing-`K` diffs pay only the incremental enumeration.
    fn cmd_diff(&mut self, rest: &str) -> Result<(), String> {
        let (a, rest) = split_word(rest);
        let (b, k_src) = split_word(rest);
        let (left, right) = (self.view(a)?, self.view(b)?);
        let k = atom_bound(k_src)?;
        let members = |view| {
            self.engine
                .members(view, k, &self.catalog)
                .map_err(|e| e.to_string())
        };
        let diff = frontier_diff(&members(left)?, &members(right)?);
        let _ = writeln!(
            self.report,
            "diff {a} {b} {k}: {} member(s) only in {a}, {} only in {b}, {} shared",
            diff.only_left.len(),
            diff.only_right.len(),
            diff.common
        );
        self.write_members("- ", &diff.only_left);
        self.write_members("+ ", &diff.only_right);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
# Example 3.1.5 as a scenario
rel R(A, B, C)

view V {
  Joined = pi{A,B}(R) * pi{B,C}(R)
}
view W {
  Left  = pi{A,B}(R)
  Right = pi{B,C}(R)
}

check equivalent V W
check dominates V W
check member V pi{A}(R)
check member V R
"#;

    #[test]
    fn demo_scenario_runs() {
        let out = run_scenario(DEMO).unwrap();
        assert_eq!(out.yes, 3); // equivalent, dominates, member π_A(R)
        assert_eq!(out.no, 1); // member R
        assert!(out.report.contains("check equivalent V W: YES"));
        assert!(out.report.contains("check member V R: NO"));
        assert!(out.report.contains("YES via"));
    }

    #[test]
    fn cached_witnesses_survive_later_catalog_growth() {
        // The second `check member` hits the verdict cache (equal view
        // fingerprints), and its witness must render with W's name even
        // though W (and S) were minted after the verdict was computed —
        // the proof's catalog snapshot predates them.
        let src = "rel R(A, B, C)\n\
                   view V {\n  X = pi{A}(R)\n}\n\
                   check member V pi{A}(R)\n\
                   rel S(A, B)\n\
                   view W {\n  Y = pi{A}(R)\n}\n\
                   check member W pi{A}(R)\n";
        let out = run_scenario(src).unwrap();
        assert_eq!(out.yes, 2, "report:\n{}", out.report);
        assert!(out.report.contains("check member V pi{A}(R): YES via X"));
        assert!(out.report.contains("check member W pi{A}(R): YES via Y"));
        assert_eq!(out.stats.hits, 1);
    }

    #[test]
    fn fingerprint_equal_views_keep_separate_standing_checks() {
        // V and V2 define the same query under different names, so their
        // canonical fingerprints coincide — but they are different views.
        // Editing V2 must leave the V check reused and re-decide only V2's,
        // and both lines must appear in every recheck.
        let src = "rel R(A, B, C)\n\
                   view V {\n  X = pi{A,B}(R)\n}\n\
                   view V2 {\n  Y = pi{A,B}(R)\n}\n\
                   check member V pi{A}(R)\n\
                   check member V2 pi{A}(R)\n\
                   edit V2 {\n  Y = R\n}\n\
                   recheck\n";
        let out = run_scenario(src).unwrap();
        assert!(
            out.report
                .contains("edit V2: 1 defining relation(s), 1 standing check(s) invalidated"),
            "report:\n{}",
            out.report
        );
        assert!(out.report.contains(
            "recheck: 2 check(s), 1 reused, 1 recomputed (0 from verdict cache, 1 executed)"
        ));
        // Both standing checks report twice (cold + recheck), each under
        // its own witness names.
        let count = |needle: &str| out.report.matches(needle).count();
        assert_eq!(count("check member V pi{A}(R): YES via pi{A}(X)"), 2);
        assert_eq!(count("check member V2 pi{A}(R): YES via pi{A}(Y)"), 1);
        // After the edit, V2's pair was re-minted as Y$1 (R's scheme differs
        // from Y's), and the witness follows.
        assert_eq!(count("check member V2 pi{A}(R): YES via pi{A}(Y$1)"), 1);
    }

    #[test]
    fn recheck_writes_each_standing_line_as_last_rendered() {
        // Each `recheck` writes the stored line of a reused check and
        // renders only recomputed ones. Every recheck line must equal what
        // a fresh `check` prints at that point, which renders anew.
        // 1. An edit dirties the standing check, and re-posing it (same
        //    label, same operands) through `check` decides it again: the
        //    stored line is refreshed in place, so the reusing recheck
        //    prints the new witness, not the pre-edit one.
        // 2. The same through `batch`.
        // 3. An edit followed directly by `recheck`: the recomputed check
        //    prints its new witness name.
        let goal = "check member V pi{A}(R)";
        let src = format!(
            "rel R(A, B)\n\
             view V {{\n  X = R\n}}\n\
             {goal}\n\
             edit V {{\n  X = pi{{A}}(R)\n}}\n\
             {goal}\n\
             recheck\n\
             edit V {{\n  X = R\n}}\n\
             batch {{\n  {goal}\n}}\n\
             recheck\n\
             edit V {{\n  X = pi{{A}}(R)\n}}\n\
             recheck\n\
             {goal}\n"
        );
        let out = run_scenario(&src).unwrap();
        let lines: Vec<&str> = out.report.lines().collect();
        let answers: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with(goal))
            .collect();
        assert_eq!(
            answers,
            [
                "check member V pi{A}(R): YES via pi{A}(X)",
                "check member V pi{A}(R): YES via X$1",
                "check member V pi{A}(R): YES via X$1",
                "check member V pi{A}(R): YES via pi{A}(X)",
                "check member V pi{A}(R): YES via pi{A}(X)",
                "check member V pi{A}(R): YES via X$2",
                "check member V pi{A}(R): YES via X$2",
            ],
            "report:\n{}",
            out.report
        );
        let rechecks: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.starts_with("recheck:"))
            .collect();
        assert_eq!(
            rechecks,
            [
                "recheck: 1 check(s), 1 reused, 0 recomputed (0 from verdict cache, 0 executed)",
                "recheck: 1 check(s), 1 reused, 0 recomputed (0 from verdict cache, 0 executed)",
                "recheck: 1 check(s), 0 reused, 1 recomputed (1 from verdict cache, 0 executed)",
            ],
            "report:\n{}",
            out.report
        );
        assert_eq!((out.yes, out.no), (7, 0));
    }

    #[test]
    fn scheme_changing_edits_stay_addressable_by_logical_name() {
        // Replacing X with a narrower query mints a fresh relation (X$n),
        // but the pair keeps its logical name: a second edit — here a full
        // revert — still addresses `X`, and the revert gets the original
        // catalog name (and the original cached verdict) back.
        let src = "rel R(A, B)\n\
                   view V {\n  X = R\n}\n\
                   check member V pi{A}(R)\n\
                   edit V {\n  X = pi{A}(R)\n}\n\
                   recheck\n\
                   edit V {\n  X = R\n}\n\
                   recheck\n";
        let out = run_scenario(src).unwrap();
        let rechecks: Vec<&str> = out
            .report
            .lines()
            .filter(|l| l.starts_with("recheck:"))
            .collect();
        assert_eq!(rechecks.len(), 2, "report:\n{}", out.report);
        // The revert is answered from the verdict cache, not recomputed.
        assert!(
            rechecks[1].contains("1 recomputed (1 from verdict cache, 0 executed)"),
            "report:\n{}",
            out.report
        );
        // And the reverted pair renders under its original name again.
        assert!(out.report.ends_with(
            "check member V pi{A}(R): YES via pi{A}(X)\n\
             recheck: 1 check(s), 0 reused, 1 recomputed (1 from verdict cache, 0 executed)\n"
        ));
        // Dropping and re-adding by logical name also works.
        let src2 = "rel R(A, B)\n\
                    view W {\n  P = pi{A}(R)\n  Q = pi{B}(R)\n}\n\
                    edit W {\n  drop P\n}\n\
                    edit W {\n  P = pi{A}(R)\n}\n\
                    check member W pi{A}(R)\n";
        let out2 = run_scenario(src2).unwrap();
        assert!(
            out2.report.contains("check member W pi{A}(R): YES via P"),
            "report:\n{}",
            out2.report
        );
    }

    #[test]
    fn edits_cannot_claim_another_views_defining_relation() {
        // `view` blocks reject duplicate pair names; `edit` must too, not
        // silently alias another view's catalog relation.
        let src = "rel R(A, B)\n\
                   view V {\n  X = pi{A}(R)\n}\n\
                   view W {\n  Y = pi{B}(R)\n}\n\
                   edit W {\n  X = pi{A}(R)\n}\n";
        let err = run_scenario(src).unwrap_err();
        assert_eq!(err.line, 9);
        assert!(
            err.to_string()
                .contains("defining relation of another view"),
            "{err}"
        );
    }

    #[test]
    fn catalog_permute_shuffles_declarations_without_changing_verdicts() {
        let body = "rel R(A, B, C)\n\
                    rel S(C, D)\n\
                    view V {\n  X = pi{A,B}(R)\n}\n\
                    check member V pi{A}(R)\n\
                    check member V pi{B,C}(R)\n";
        let plain = run_scenario(body).unwrap();
        for seed in [1u64, 2, 9] {
            let permuted = run_scenario(&format!("catalog permute {seed}\n{body}")).unwrap();
            assert!(permuted
                .report
                .contains(&format!("permuted over 2 relation(s) (seed {seed})")));
            let checks = |r: &str| {
                r.lines()
                    .filter(|l| l.starts_with("check "))
                    .map(str::to_owned)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                checks(&plain.report),
                checks(&permuted.report),
                "seed {seed}"
            );
            // The catalogs really differ in declaration order for at
            // least one seed; content is what must agree.
            assert_eq!(permuted.catalog.rel_count(), plain.catalog.rel_count());
        }
    }

    #[test]
    fn catalog_permute_must_precede_declarations() {
        let err = run_scenario("rel R(A)\ncatalog permute 3\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("precede"), "{err}");
        let err = run_scenario("catalog shuffle 3\n").unwrap_err();
        assert!(err.to_string().contains("unknown catalog directive"));
        let err = run_scenario("catalog permute x\n").unwrap_err();
        assert!(err.to_string().contains("bad permutation seed"));
        // Duplicate buffered names are rejected eagerly.
        let err = run_scenario("catalog permute 1\nrel R(A)\nrel R(B)\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unknown_commands_error_with_line_numbers() {
        let err = run_scenario("rel R(A)\nfrobnicate R\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn parse_errors_point_at_the_view_body() {
        let err = run_scenario("rel R(A,B)\nview V {\n  X = pi{C}(R)\n}\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn joins_too_wide_to_enumerate_are_an_overflow_not_a_panic() {
        // The 18-attribute join of two 9-attribute atoms has too many
        // projections to enumerate; the search must report "unknown". So
        // must normalizing a view with a 17-attribute or an 18-attribute
        // defining query.
        let nine_and_nine = "rel R(A, B, C, D, E, F, G, H, I)\n\
                             rel S(J, K, L, M, N, O, P, Q, T)\n";
        let attrs: Vec<String> = (0..17).map(|i| format!("A{i}")).collect();
        let wide = format!("rel R({})\nview V {{\n  Q = R\n}}\n", attrs.join(", "));
        let two = "view V {\n  X = R\n  Y = S\n}\ncheck member V pi{A,J}(R * S)\n";
        let joined = "view V {\n  X = R * S\n}\nsimplify V\n";
        for (src, line) in [
            (format!("{nine_and_nine}{two}"), 7),
            (format!("{wide}simplify V\n"), 5),
            (format!("{wide}nonredundant V\n"), 5),
            (format!("{nine_and_nine}{joined}"), 6),
        ] {
            let err = run_scenario(&src).unwrap_err();
            assert_eq!(err.line, line, "{src}");
            assert!(err.to_string().contains("overflow"), "{err}");
        }
    }

    #[test]
    fn unclosed_view_blocks_error() {
        let err = run_scenario("rel R(A)\nview V {\n  X = R\n").unwrap_err();
        assert!(err.to_string().contains("never closed"));
    }

    #[test]
    fn nonredundant_and_simplify_commands() {
        let src = r#"
rel R(A, B, C)
view V {
  Joined = pi{A,B}(R) * pi{B,C}(R)
  Extra  = pi{B}(R)
}
nonredundant V
simplify V
"#;
        let out = run_scenario(src).unwrap();
        assert!(out.report.contains("nonredundant V: 2 -> 1 relation(s)"));
        assert!(out.report.contains("simplify V: 2 -> 2 relation(s)"));
    }

    #[test]
    fn frontier_command_lists_members() {
        let src = "rel R(A, B)\nview V {\n  P = pi{A}(R)\n}\nfrontier V 2\n";
        let out = run_scenario(src).unwrap();
        assert!(out.report.contains("frontier V 2: 1 distinct member(s)"));
    }

    #[test]
    fn diff_command_reports_the_frontier_set_difference() {
        let src = "rel R(A, B, C)\n\
                   view V {\n  L = pi{A,B}(R)\n  Rt = pi{B,C}(R)\n}\n\
                   view W {\n  L2 = pi{A,B}(R)\n}\n\
                   diff V W 2\n\
                   diff W V 2\n\
                   diff V V 2\n\
                   diff V W 2\n";
        let out = run_scenario(src).unwrap();
        // W's frontier is a subset of V's: nothing is gained V→W.
        assert!(
            out.report
                .contains("diff V W 2: 8 member(s) only in V, 0 only in W, 4 shared"),
            "report:\n{}",
            out.report
        );
        // The reverse orientation swaps the sides.
        assert!(out
            .report
            .contains("diff W V 2: 0 member(s) only in W, 8 only in V, 4 shared"));
        // A version diffed against itself is empty.
        assert!(out
            .report
            .contains("diff V V 2: 0 member(s) only in V, 0 only in V, 12 shared"));
        // The repeated diff reuses the cached context pair and renders
        // byte-identically.
        let first = out.report.find("diff V W 2:").unwrap();
        let last = out.report.rfind("diff V W 2:").unwrap();
        assert_ne!(first, last);
        let block = |start: usize| {
            let mut lines = out.report[start..].lines();
            let mut block = vec![lines.next().unwrap()];
            block.extend(lines.take_while(|l| l.starts_with("  ")));
            block.join("\n")
        };
        assert_eq!(block(first), block(last));
    }

    #[test]
    fn txn_block_invalidates_each_standing_check_once() {
        // Both edits touch views the two checks depend on; the equivalence
        // check depends on both views yet invalidates once, not twice.
        let src = "rel R(A, B, C)\n\
                   view V {\n  X = pi{A,B}(R)\n}\n\
                   view W {\n  Y = pi{A,B}(R)\n}\n\
                   check equivalent V W\n\
                   check member V pi{A}(R)\n\
                   txn {\n\
                   \x20 edit V {\n\
                   \x20   X = pi{A,B}(R) * pi{B,C}(R)\n\
                   \x20 }\n\
                   \x20 edit W {\n\
                   \x20   Y = R\n\
                   \x20 }\n\
                   }\n\
                   recheck\n";
        let out = run_scenario(src).unwrap();
        assert!(
            out.report
                .contains("txn: 2 edit(s), 2 standing check(s) invalidated"),
            "report:\n{}",
            out.report
        );
        assert!(out.report.contains(
            "recheck: 2 check(s), 0 reused, 2 recomputed (0 from verdict cache, 2 executed)"
        ));
    }

    #[test]
    fn txn_verdicts_match_sequential_edits() {
        // The differential core: the same edits as one txn and as
        // sequential edit blocks must yield byte-identical check lines
        // (verdicts and witnesses) after recheck.
        let checks = "check member V pi{A}(R)\n\
                      check equivalent V W\n\
                      check dominates V W\n";
        let prologue = format!(
            "rel R(A, B, C)\n\
             view V {{\n  X = pi{{A,B}}(R)\n  X2 = pi{{B,C}}(R)\n}}\n\
             view W {{\n  Y = pi{{A,B}}(R)\n}}\n\
             {checks}"
        );
        let txn = format!(
            "{prologue}\
             txn {{\n\
             \x20 edit V {{\n    drop X2\n  }}\n\
             \x20 edit V {{\n    X = pi{{A}}(R)\n  }}\n\
             \x20 edit W {{\n    Y = pi{{A}}(R)\n  }}\n\
             }}\n\
             recheck\n"
        );
        let seq = format!(
            "{prologue}\
             edit V {{\n  drop X2\n}}\n\
             edit V {{\n  X = pi{{A}}(R)\n}}\n\
             edit W {{\n  Y = pi{{A}}(R)\n}}\n\
             recheck\n"
        );
        let txn_out = run_scenario(&txn).unwrap();
        let seq_out = run_scenario(&seq).unwrap();
        let check_lines = |r: &str| {
            r.lines()
                .filter(|l| l.starts_with("check "))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            check_lines(&txn_out.report),
            check_lines(&seq_out.report),
            "txn:\n{}\nseq:\n{}",
            txn_out.report,
            seq_out.report
        );
        assert_eq!((txn_out.yes, txn_out.no), (seq_out.yes, seq_out.no));
    }

    #[test]
    fn txn_blocks_reject_non_edit_commands() {
        let err = run_scenario("rel R(A)\ntxn {\n  check member V R\n}\n").unwrap_err();
        assert!(err.to_string().contains("only hold `edit` blocks"), "{err}");
        let err = run_scenario("rel R(A)\ntxn {\n}\n").unwrap_err();
        assert!(err.to_string().contains("holds no edits"), "{err}");
        let err = run_scenario("rel R(A)\ntxn {\n  edit V {\n").unwrap_err();
        assert!(err.to_string().contains("never closed"), "{err}");
    }
}
