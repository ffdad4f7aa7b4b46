//! The seeded `POST /query` stream, and the in-process references every
//! served answer is checked against.

use uarch_graph::DepGraph;
use uarch_obs::json::{self, Value};
use uarch_runner::{Query, Runner};
use uarch_serve::ServeContext;
use uarch_sim::{Idealization, Simulator};
use uarch_trace::{EventClass, EventSet};

use crate::stats::Digest;
use crate::RUNNER_THREADS;

/// SplitMix64: a small, seedable generator for the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for input `tag` derived from the run's seed, so each input
/// changes with `--seed` independently of the others.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The paper's breakdown batch: the eight singleton costs, then the 28
/// pair icosts (37 distinct sets with the baseline).
pub fn breakdown_queries() -> Vec<Query> {
    let single = |c: EventClass| EventSet::single(c);
    let mut queries: Vec<Query> = EventClass::ALL
        .iter()
        .map(|&c| Query::Cost(single(c)))
        .collect();
    for (i, &a) in EventClass::ALL.iter().enumerate() {
        for &b in &EventClass::ALL[i + 1..] {
            queries.push(Query::Icost(single(a).with(b)));
        }
    }
    queries
}

/// Answer cost and icost queries from a `cost(S)` table, by the closed
/// form `icost(U) = Σ_{V⊆U} (−1)^{|U∖V|} cost(V)`.
pub fn answers_from(cost: impl Fn(EventSet) -> i64, queries: &[Query]) -> Vec<i64> {
    queries
        .iter()
        .map(|q| match q {
            Query::Cost(s) => cost(*s),
            Query::Icost(u) => u
                .subsets()
                .map(|v| {
                    if (u.len() - v.len()) % 2 == 0 {
                        cost(v)
                    } else {
                        -cost(v)
                    }
                })
                .sum(),
            Query::IcostOfUnits(_) => unreachable!("the benchmark sends no unit queries"),
        })
        .collect()
}

/// Mean |a − b| in per-mille of `baseline` cycles.
pub fn err_pm(a: &[i64], b: &[i64], baseline: u64) -> f64 {
    let total: i64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    1000.0 * total as f64 / (a.len() as f64 * baseline as f64)
}

/// The pool a request draws from: singleton `cost(S)`, pair `icost` and
/// triple `icost` (92 queries over 93 distinct sets).
pub fn query_pool() -> Vec<Query> {
    let mut pool = breakdown_queries();
    for bits in 1..=255u8 {
        if bits.count_ones() == 3 {
            pool.push(Query::Icost(EventSet::from_bits(bits)));
        }
    }
    pool
}

/// One query in the `POST /query` wire form.
pub fn query_json(q: &Query) -> String {
    match q {
        Query::Cost(s) => format!("{{\"cost\":{}}}", json::quote(&s.to_string())),
        Query::Icost(s) => format!("{{\"icost\":{}}}", json::quote(&s.to_string())),
        Query::IcostOfUnits(_) => unreachable!("the pool holds no unit queries"),
    }
}

/// Which backend a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Sim,
    Graph,
    Auto,
}

impl Backend {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Graph => "graph",
            Backend::Auto => "auto",
        }
    }
}

/// One `POST /query` request of the stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub backend: Backend,
    /// Indices into [`query_pool`].
    pub items: Vec<usize>,
    pub body: String,
}

/// `len` requests: each a batch of 1–8 queries drawn Zipf-skewed
/// (exponent 1, over a seeded permutation of the pool), sent to `auto`,
/// `graph` or `sim` in the proportions 5:3:2. The mix of backends and
/// batch sizes is the same for every seed (stratified, then shuffled),
/// so the seed changes which queries are hot and the order, not how much
/// work a replay holds.
pub fn request_stream(seed: u64, len: usize) -> Vec<Request> {
    let pool = query_pool();
    let mut rng = Rng::new(seed);
    let shuffle = |v: &mut Vec<usize>, rng: &mut Rng| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i + 1));
        }
    };
    let mut rank: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut rank, &mut rng);
    let mut order: Vec<usize> = (0..len).collect();
    shuffle(&mut order, &mut rng);
    let weights: Vec<f64> = (1..=pool.len()).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let draw = |rng: &mut Rng| {
        let mut x = rng.unit() * total;
        for (k, w) in weights.iter().enumerate() {
            if x < *w {
                return rank[k];
            }
            x -= w;
        }
        rank[pool.len() - 1]
    };
    order
        .into_iter()
        .map(|slot| {
            let backend = match slot % 10 {
                0..=4 => Backend::Auto,
                5..=7 => Backend::Graph,
                _ => Backend::Sim,
            };
            let items: Vec<usize> = (0..1 + (slot / 10) % 8).map(|_| draw(&mut rng)).collect();
            let queries: Vec<String> = items.iter().map(|&i| query_json(&pool[i])).collect();
            let body = format!(
                "{{\"backend\":\"{}\",\"queries\":[{}]}}",
                backend.name(),
                queries.join(",")
            );
            Request {
                backend,
                items,
                body,
            }
        })
        .collect()
}

/// Reference answers for every pool query on one served context.
#[derive(Debug, Clone)]
pub struct References {
    /// Ground truth: `Runner::run_warmed` on a fresh runner.
    pub sim: Vec<i64>,
    /// `Runner::run_graph` on a graph built the way `ServeHost::new`
    /// builds it: from a cold (unwarmed) baseline simulation.
    pub graph: Vec<i64>,
    /// Warmed baseline cycles.
    pub baseline: u64,
}

impl References {
    /// Compute the references for `ctx`.
    pub fn compute(ctx: &ServeContext) -> References {
        let pool = query_pool();
        let (sim, _) = Runner::new().with_threads(RUNNER_THREADS).run_warmed(
            &ctx.config,
            &ctx.trace,
            &ctx.warm_data,
            &ctx.warm_code,
            &pool,
        );
        let graph = cold_graph(ctx);
        let (graph, _) = Runner::new()
            .with_threads(RUNNER_THREADS)
            .run_graph(&graph, &pool);
        let baseline = Simulator::new(&ctx.config).cycles_warmed(
            &ctx.trace,
            Idealization::none(),
            &ctx.warm_data,
            &ctx.warm_code,
        );
        References {
            sim,
            graph,
            baseline,
        }
    }

    /// Mean |graph − sim| over the pool, in per-mille of the baseline.
    pub fn graph_err_pm(&self) -> f64 {
        err_pm(&self.graph, &self.sim, self.baseline)
    }

    /// Digest of every reference answer.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for v in self.sim.iter().chain(&self.graph) {
            d.add(*v);
        }
        d.add(self.baseline as i64);
        d
    }
}

/// The dependence graph `ServeHost::new` serves: built from a cold
/// baseline simulation, although `sim` answers use the warm sets.
pub fn cold_graph(ctx: &ServeContext) -> DepGraph {
    let cold = Simulator::new(&ctx.config).run(&ctx.trace, Idealization::none());
    DepGraph::build(&ctx.trace, &cold, &ctx.config)
}

/// Which rung answered one query, as `auto` reports it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rungs {
    pub cache: u64,
    pub graph: u64,
    pub sim: u64,
}

/// Check a `POST /query` response body against the references (see
/// [`check_answers`]). Returns the answers.
pub fn check_response(
    body: &str,
    req: &Request,
    refs: &References,
    rungs: &mut Rungs,
) -> Result<Vec<i64>, String> {
    let doc = json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Value::as_arr)
            .ok_or(format!("response has no {k}"))
    };
    let answers = field("answers")?
        .iter()
        .map(|v| v.as_num().map(|n| n as i64).ok_or("non-numeric answer"))
        .collect::<Result<Vec<i64>, _>>()?;
    let provenance = field("provenance")?
        .iter()
        .map(|v| v.as_str().ok_or("non-string provenance"))
        .collect::<Result<Vec<&str>, _>>()?;
    check_answers(req, &answers, &provenance, refs, rungs)?;
    Ok(answers)
}

/// Check one request's answers: each must equal the reference of the
/// rung it reports (`sim` and `cache` against ground truth, `graph`
/// against the graph reference), and the exact backends must report
/// their own rung. `auto` rungs are counted into `rungs`.
pub fn check_answers(
    req: &Request,
    answers: &[i64],
    provenance: &[&str],
    refs: &References,
    rungs: &mut Rungs,
) -> Result<(), String> {
    if answers.len() != req.items.len() || provenance.len() != req.items.len() {
        return Err(format!(
            "{} answers for {} queries",
            answers.len(),
            req.items.len()
        ));
    }
    for ((&got, &rung), &item) in answers.iter().zip(provenance).zip(&req.items) {
        let want = match (req.backend, rung) {
            (Backend::Sim, "sim") => refs.sim[item],
            (Backend::Graph, "graph") => refs.graph[item],
            (Backend::Auto, "sim") => {
                rungs.sim += 1;
                refs.sim[item]
            }
            (Backend::Auto, "cache") => {
                rungs.cache += 1;
                refs.sim[item]
            }
            (Backend::Auto, "graph") => {
                rungs.graph += 1;
                refs.graph[item]
            }
            (backend, rung) => {
                return Err(format!("backend {} reported rung {rung}", backend.name()))
            }
        };
        if got != want {
            return Err(format!(
                "query {item} on {}: answered {got} via {rung}, reference {want}",
                req.backend.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_and_breakdown_shapes() {
        assert_eq!(breakdown_queries().len(), 36);
        assert_eq!(query_pool().len(), 92);
    }

    #[test]
    fn stream_is_seeded() {
        let a = request_stream(7, 50);
        let b = request_stream(7, 50);
        let c = request_stream(8, 50);
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
        assert!(a.iter().all(|r| (1..=8).contains(&r.items.len())));
    }
}
