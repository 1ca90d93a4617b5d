//! The independent answer check.
//!
//! Every rule set the workloads run (P, P', JOIN_HEAVY, LARGE_TRAFFIC and
//! their `tenant_tag(i).` variants) is evaluated here by hand, with plain
//! hash joins stratum by stratum over a window's triples. Nothing in this
//! file calls the grounder, the solver or `sr-core`: the only shared code
//! is the triple type the stream carries. Each program is stratified, and
//! the only negated atoms are input atoms, so the unique answer set is the
//! least model computed here.
//!
//! The triple-to-fact mapping is written out again as well: an IRI becomes
//! its local name (after the last `#` or `/`), a literal that reads as an
//! integer becomes that integer, any other literal a constant; the object
//! is dropped for the unary inputs `traffic_light` and `hazard_lights`. An
//! ordered comparison over a non-integer is an evaluation error, as it is
//! for the engine.

use asp_core::{AnswerSet, GroundAtom, GroundTerm, Symbols};
use sr_rdf::{Node, Triple};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The rule sets the benchmark checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rules {
    /// The paper's Listing 1.
    P,
    /// P plus rule r7 (`traffic_jam(X) :- car_fire(X), many_cars(X).`).
    PPrime,
    /// The wide-body join rule set of the join-planning experiment.
    JoinHeavy,
    /// The 17-rule smart-city rule set.
    LargeTraffic,
}

/// One program: a rule set, optionally with a `tenant_tag(i).` fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub rules: Rules,
    pub tag: Option<usize>,
}

/// What the evaluator expects of one program on one window.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    /// Derived atoms (program facts included), rendered and sorted.
    pub atoms: Vec<String>,
    /// How many of them rules derived (program facts excluded): the
    /// non-vacuity floor counts these.
    pub rule_derived: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Val<'a> {
    Int(i64),
    Sym(&'a str),
}

impl std::fmt::Display for Val<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Val::Int(i) => write!(f, "{i}"),
            Val::Sym(s) => write!(f, "{s}"),
        }
    }
}

fn local(s: &str) -> &str {
    s.rsplit_once(['#', '/']).map_or(s, |(_, l)| l)
}

fn val(node: &Node) -> Val<'_> {
    match node {
        Node::Int(i) => Val::Int(*i),
        Node::Iri(s) => Val::Sym(local(s)),
        Node::Literal(s) => s.parse::<i64>().map_or(Val::Sym(s), Val::Int),
    }
}

fn int(v: Val<'_>) -> Result<i64, String> {
    match v {
        Val::Int(i) => Ok(i),
        Val::Sym(s) => Err(format!("ordered comparison over the constant {s}")),
    }
}

/// A window's input facts, grouped by predicate name.
struct Db<'a> {
    rel: HashMap<&'a str, Vec<(Val<'a>, Val<'a>)>>,
}

impl<'a> Db<'a> {
    fn new(items: &'a [Triple]) -> Self {
        let mut rel: HashMap<&str, Vec<(Val, Val)>> = HashMap::new();
        for t in items {
            let p = match &t.p {
                Node::Iri(s) | Node::Literal(s) => local(s),
                Node::Int(_) => "",
            };
            rel.entry(p).or_default().push((val(&t.s), val(&t.o)));
        }
        Db { rel }
    }

    fn get(&self, p: &str) -> &[(Val<'a>, Val<'a>)] {
        self.rel.get(p).map_or(&[], Vec::as_slice)
    }

    /// Subjects of a predicate (the unary reading of an input).
    fn subjects(&self, p: &str) -> HashSet<Val<'a>> {
        self.get(p).iter().map(|&(s, _)| s).collect()
    }

    /// Subjects whose object satisfies `keep`.
    fn subjects_where(
        &self,
        p: &str,
        keep: impl Fn(Val<'a>) -> Result<bool, String>,
    ) -> Result<HashSet<Val<'a>>, String> {
        let mut out = HashSet::new();
        for &(s, o) in self.get(p) {
            if keep(o)? {
                out.insert(s);
            }
        }
        Ok(out)
    }

    /// Distinct objects keyed by subject (a window is a multiset; a join
    /// needs each binding once).
    fn index(&self, p: &str) -> HashMap<Val<'a>, HashSet<Val<'a>>> {
        let mut out: HashMap<Val, HashSet<Val>> = HashMap::new();
        for &(s, o) in self.get(p) {
            out.entry(s).or_default().insert(o);
        }
        out
    }

    /// The distinct tuples of a predicate.
    fn distinct(&self, p: &str) -> HashSet<(Val<'a>, Val<'a>)> {
        self.get(p).iter().copied().collect()
    }
}

struct Out {
    atoms: BTreeSet<String>,
}

impl Out {
    fn unary<'a>(&mut self, pred: &str, xs: impl IntoIterator<Item = &'a Val<'a>>) {
        for x in xs {
            self.atoms.insert(format!("{pred}({x})"));
        }
    }
}

/// `very_slow_speed`, `many_cars` and `traffic_jam` without rule r7.
struct Flow<'a> {
    many_cars: HashSet<Val<'a>>,
    traffic_jam: HashSet<Val<'a>>,
}

fn traffic_flow<'a>(db: &Db<'a>, out: &mut Out) -> Result<Flow<'a>, String> {
    let slow = db.subjects_where("average_speed", |y| Ok(int(y)? < 20))?;
    let many_cars = db.subjects_where("car_number", |y| Ok(int(y)? > 40))?;
    let light = db.subjects("traffic_light");
    let traffic_jam: HashSet<Val> =
        slow.iter().filter(|x| many_cars.contains(x) && !light.contains(x)).copied().collect();
    out.unary("very_slow_speed", &slow);
    out.unary("many_cars", &many_cars);
    Ok(Flow { many_cars, traffic_jam })
}

/// `car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X).`
fn car_fire<'a>(db: &Db<'a>) -> HashSet<Val<'a>> {
    let smoke: HashSet<Val> = db
        .get("car_in_smoke")
        .iter()
        .filter(|(_, o)| *o == Val::Sym("high"))
        .map(|p| p.0)
        .collect();
    let stopped = stopped_cars(db);
    db.get("car_location")
        .iter()
        .filter(|(c, _)| smoke.contains(c) && stopped.contains(c))
        .map(|&(_, x)| x)
        .collect()
}

fn stopped_cars<'a>(db: &Db<'a>) -> HashSet<Val<'a>> {
    db.get("car_speed").iter().filter(|(_, o)| *o == Val::Int(0)).map(|p| p.0).collect()
}

fn paper(db: &Db<'_>, r7: bool, out: &mut Out) -> Result<(), String> {
    let flow = traffic_flow(db, out)?;
    let fire = car_fire(db);
    let mut jam = flow.traffic_jam;
    if r7 {
        jam.extend(fire.iter().filter(|x| flow.many_cars.contains(x)));
    }
    out.unary("traffic_jam", &jam);
    out.unary("car_fire", &fire);
    out.unary("give_notification", jam.iter().chain(&fire));
    Ok(())
}

fn join_heavy(db: &Db<'_>, out: &mut Out) {
    let blacklist = db.subjects("blacklist");
    let ticket = db.subjects("ticket");
    let oncall = db.subjects("oncall");
    let critical = db.subjects("critical");
    let hub = db.index("hub");
    let relay = db.index("relay");
    let none = HashSet::new();
    // alert(X, W) :- traffic(X, Y), hub(Y, Z), relay(Z, W), blacklist(X, B).
    let mut alert: HashSet<(Val, Val)> = HashSet::new();
    // audit(X) :- traffic(X, Y), hub(Y, Z), critical(Z, C), ticket(X, T).
    let mut audit: HashSet<Val> = HashSet::new();
    for (x, y) in db.distinct("traffic") {
        let (listed, ticketed) = (blacklist.contains(&x), ticket.contains(&x));
        if !listed && !ticketed {
            continue;
        }
        for z in hub.get(&y).unwrap_or(&none) {
            if listed {
                for &w in relay.get(z).unwrap_or(&none) {
                    alert.insert((x, w));
                }
            }
            if ticketed && critical.contains(z) {
                audit.insert(x);
            }
        }
    }
    // escalate(X) :- alert(X, W), oncall(W, O), ticket(X, T), blacklist(X, B).
    let escalate: HashSet<Val> = alert
        .iter()
        .filter(|(x, w)| oncall.contains(w) && ticket.contains(x) && blacklist.contains(x))
        .map(|&(x, _)| x)
        .collect();
    for (x, w) in &alert {
        out.atoms.insert(format!("alert({x},{w})"));
    }
    out.unary("escalate", &escalate);
    out.unary("audit", &audit);
}

fn large_traffic(db: &Db<'_>, out: &mut Out) -> Result<(), String> {
    let flow = traffic_flow(db, out)?;
    out.unary("traffic_jam", &flow.traffic_jam);
    let fire = car_fire(db);
    out.unary("car_fire", &fire);
    // breakdown(X) :- hazard_lights(C), car_speed(C, 0), car_location(C, X).
    let hazard = db.subjects("hazard_lights");
    let stopped = stopped_cars(db);
    let breakdown: HashSet<Val> = db
        .get("car_location")
        .iter()
        .filter(|(c, _)| hazard.contains(c) && stopped.contains(c))
        .map(|&(_, x)| x)
        .collect();
    out.unary("breakdown", &breakdown);
    // icy_road(X) :- temperature(X, T), T < 0, precipitation(X, Y), Y > 0.
    let freezing = db.subjects_where("temperature", |t| Ok(int(t)? < 0))?;
    let wet = db.subjects_where("precipitation", |y| Ok(int(y)? > 0))?;
    let icy: HashSet<Val> = freezing.intersection(&wet).copied().collect();
    out.unary("icy_road", &icy);
    // low_visibility(X) :- fog_level(X, F), F > 70.
    let fog = db.subjects_where("fog_level", |f| Ok(int(f)? > 70))?;
    out.unary("low_visibility", &fog);
    let weather: HashSet<Val> = icy.union(&fog).copied().collect();
    out.unary("weather_alert", &weather);
    // bus_delayed(B) :- bus_schedule(B, S), bus_position(B, P), P < S - 10.
    let position = db.index("bus_position");
    let mut delayed: HashSet<Val> = HashSet::new();
    let none = HashSet::new();
    for (b, s) in db.distinct("bus_schedule") {
        for &p in position.get(&b).unwrap_or(&none) {
            if int(p)? < int(s)? - 10 {
                delayed.insert(b);
            }
        }
    }
    out.unary("bus_delayed", &delayed);
    // bus_bunching(L) :- bus_line(B1, L), bus_line(B2, L), bus_delayed(B1),
    //                    bus_delayed(B2), B1 < B2.
    let mut on_line: HashMap<Val, BTreeSet<i64>> = HashMap::new();
    for &(b, l) in db.get("bus_line") {
        if delayed.contains(&b) {
            on_line.entry(l).or_default().insert(int(b)?);
        }
    }
    let bunching: HashSet<Val> =
        on_line.into_iter().filter(|(_, buses)| buses.len() >= 2).map(|(l, _)| l).collect();
    out.unary("bus_bunching", &bunching);
    out.unary("reroute", &bunching);
    // close_road(X) :- car_fire(X), icy_road(X).
    out.unary("close_road", fire.intersection(&icy));
    out.unary(
        "give_notification",
        flow.traffic_jam.iter().chain(&fire).chain(&breakdown).chain(&weather),
    );
    Ok(())
}

/// Evaluates `spec` over a window's full content.
pub fn evaluate(spec: Spec, items: &[Triple]) -> Result<Expected, String> {
    let db = Db::new(items);
    let mut out = Out { atoms: BTreeSet::new() };
    match spec.rules {
        Rules::P => paper(&db, false, &mut out)?,
        Rules::PPrime => paper(&db, true, &mut out)?,
        Rules::JoinHeavy => join_heavy(&db, &mut out),
        Rules::LargeTraffic => large_traffic(&db, &mut out)?,
    }
    let rule_derived = out.atoms.len();
    if let Some(i) = spec.tag {
        out.atoms.insert(format!("tenant_tag({i})"));
    }
    Ok(Expected { atoms: out.atoms.into_iter().collect(), rule_derived })
}

/// Renders one engine atom in the evaluator's notation.
pub fn render(syms: &Symbols, atom: &GroundAtom) -> String {
    let mut s = String::new();
    if atom.strong_neg {
        s.push('-');
    }
    s.push_str(&syms.resolve(atom.pred));
    if !atom.args.is_empty() {
        s.push('(');
        for (k, arg) in atom.args.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            match arg {
                GroundTerm::Int(i) => s.push_str(&i.to_string()),
                GroundTerm::Const(c) => s.push_str(&syms.resolve(*c)),
                GroundTerm::Func(..) => s.push_str(&format!("{}", arg.display(syms))),
            }
        }
        s.push(')');
    }
    s
}

/// Checks an engine answer against the evaluator. `inputs` names the
/// stream's predicates; every other atom of the answer is derived. The
/// programs are stratified, so a correct answer is exactly one answer set.
pub fn check(
    syms: &Symbols,
    answers: &[AnswerSet],
    inputs: &HashSet<&str>,
    expected: &Expected,
) -> Result<(), String> {
    if answers.len() != 1 {
        return Err(format!("{} answer sets, expected exactly one", answers.len()));
    }
    let mut got: Vec<String> = answers[0]
        .atoms()
        .iter()
        .filter(|a| !inputs.contains(&*syms.resolve(a.pred)))
        .map(|a| render(syms, a))
        .collect();
    got.sort_unstable();
    if got == expected.atoms {
        return Ok(());
    }
    let want: HashSet<&String> = expected.atoms.iter().collect();
    let have: HashSet<&String> = got.iter().collect();
    let missing: Vec<&&String> = want.difference(&have).take(3).collect();
    let extra: Vec<&&String> = have.difference(&want).take(3).collect();
    Err(format!(
        "{} derived atoms, expected {}; missing {missing:?}, unexpected {extra:?}",
        got.len(),
        expected.atoms.len()
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        crate::selftest::run().expect("self-test");
    }
}
