//! Self-test of the answer check, run at the start of every benchmark run:
//! the evaluator and the engine must both give the hand-worked answers on a
//! tiny window, and an engine answer with one derived atom dropped must be
//! counted as a failed window.

use crate::oracle::{self, Rules, Spec};
use asp_core::{AnswerSet, Symbols};
use sr_core::{
    AnalysisConfig, DependencyAnalysis, EngineConfig, PlanPartitioner, ReasonerConfig,
    StreamEngine, UnknownPredicate,
};
use sr_rdf::{Node, Triple};
use sr_stream::Window;
use std::collections::HashSet;
use std::sync::Arc;

fn tiny_window() -> Vec<Triple> {
    let t = |s: &str, p: &str, o: Node| {
        Triple::new(
            Node::iri(&format!("http://ex.org/{s}")),
            Node::iri(&format!("http://ex.org#{p}")),
            o,
        )
    };
    vec![
        // A slow, crowded crossing with a traffic light: no jam.
        t("newcastle", "average_speed", Node::Int(10)),
        t("newcastle", "car_number", Node::Int(55)),
        t("newcastle", "traffic_light", Node::Int(1)),
        // A slow, crowded crossing without one: a jam.
        t("galway", "average_speed", Node::Int(5)),
        t("galway", "car_number", Node::literal("60")),
        // A stopped car in heavy smoke at a crowded place: a fire, and
        // under r7 a jam there too.
        t("car1", "car_in_smoke", Node::literal("high")),
        t("car1", "car_speed", Node::Int(0)),
        t("car1", "car_location", Node::iri("http://ex.org/dangan")),
        t("dangan", "car_number", Node::Int(45)),
        // Fast and light traffic, and a moving car in light smoke: nothing.
        t("cork", "average_speed", Node::Int(50)),
        t("cork", "car_number", Node::Int(3)),
        t("car2", "car_in_smoke", Node::literal("low")),
        t("car2", "car_speed", Node::Int(30)),
        t("car2", "car_location", Node::iri("http://ex.org/cork")),
    ]
}

/// The hand-worked derived atoms of the tiny window.
fn hand_worked(rules: Rules) -> Vec<String> {
    let mut atoms = vec![
        "very_slow_speed(newcastle)",
        "very_slow_speed(galway)",
        "many_cars(newcastle)",
        "many_cars(galway)",
        "many_cars(dangan)",
        "traffic_jam(galway)",
        "car_fire(dangan)",
        "give_notification(galway)",
        "give_notification(dangan)",
    ];
    if rules == Rules::PPrime {
        atoms.push("traffic_jam(dangan)");
    }
    let mut atoms: Vec<String> = atoms.into_iter().map(String::from).collect();
    atoms.sort();
    atoms
}

/// Runs one window through the paper workload's engine and returns its
/// single output's answers.
fn engine_answers(source: &str, items: Vec<Triple>) -> Result<(Symbols, Vec<AnswerSet>), String> {
    let syms = Symbols::new();
    let program = asp_parser::parse_program(&syms, source).map_err(|e| e.to_string())?;
    let analysis = DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())
        .map_err(|e| e.to_string())?;
    let partitioner =
        Arc::new(PlanPartitioner::new(analysis.plan.clone(), UnknownPredicate::Partition0));
    let mut engine = StreamEngine::with_partitioned_lanes(
        &syms,
        &program,
        Some(&analysis.inpre),
        partitioner,
        ReasonerConfig::default(),
        EngineConfig { in_flight: 1, queue_depth: 1, window_deadline_ms: None },
    )
    .map_err(|e| e.to_string())?;
    engine.submit(Window::new(0, items)).map_err(|e| e.to_string())?;
    let report = engine.finish();
    let out = report.outputs.into_iter().next().ok_or("the engine emitted no output")?;
    let answers = out.result.map_err(|e| e.to_string())?.answers;
    Ok((syms, answers))
}

/// Runs the self-test; `Err` names the first thing that did not hold.
pub fn run() -> Result<(), String> {
    let inputs: HashSet<&str> = sr_stream::PAPER_PREDICATES.into_iter().collect();
    for (rules, source) in
        [(Rules::P, sr_bench::PROGRAM_P.to_string()), (Rules::PPrime, sr_bench::program_p_prime())]
    {
        let want = hand_worked(rules);
        let expected = oracle::evaluate(Spec { rules, tag: None }, &tiny_window())?;
        if expected.atoms != want {
            return Err(format!(
                "{rules:?}: evaluator gave {:?}, hand-worked {want:?}",
                expected.atoms
            ));
        }
        let (syms, answers) = engine_answers(&source, tiny_window())?;
        oracle::check(&syms, &answers, &inputs, &expected)
            .map_err(|e| format!("{rules:?}: engine answer rejected: {e}"))?;
        // Drop one derived atom: the check must count the window as failed.
        let kept: Vec<_> = answers[0]
            .atoms()
            .iter()
            .filter(|a| oracle::render(&syms, a) != "traffic_jam(galway)")
            .cloned()
            .collect();
        if kept.len() + 1 != answers[0].len() {
            return Err(format!("{rules:?}: traffic_jam(galway) not in the engine answer"));
        }
        let tampered = [AnswerSet::new(kept, &syms)];
        if oracle::check(&syms, &tampered, &inputs, &expected).is_ok() {
            return Err(format!("{rules:?}: an answer missing one derived atom passed the check"));
        }
        // An empty answer must fail too.
        if oracle::check(&syms, &[], &inputs, &expected).is_ok() {
            return Err(format!("{rules:?}: an empty answer passed the check"));
        }
    }
    // The tag of a tenant variant is part of its answer.
    let tagged = oracle::evaluate(Spec { rules: Rules::P, tag: Some(4) }, &tiny_window())?;
    if !tagged.atoms.iter().any(|a| a == "tenant_tag(4)") || tagged.rule_derived != 9 {
        return Err(format!("tagged variant: {tagged:?}"));
    }
    Ok(())
}
