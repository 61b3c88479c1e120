//! `stats` and `compare`: read saved result lines (the last stdout
//! line of each run, one per line in a file) and judge them against the
//! bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles, regressed, spread, Better};
use serde_json::Value;
use std::collections::BTreeMap;

/// One end-to-end metric's contract.
struct Spec {
    better: Better,
    bound: Option<f64>,
}

fn load_spec(path: &str) -> Result<BTreeMap<String, Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: bad 'better'"))?;
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(name.to_string(), Spec { better, bound });
        }
    }
    Ok(out)
}

/// Result lines of the given files: metric name -> values, plus the
/// failed share of each run.
struct Runs {
    metrics: BTreeMap<String, Vec<f64>>,
    failed_shares: Vec<f64>,
    incorrect: usize,
}

fn load_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs {
        metrics: BTreeMap::new(),
        failed_shares: Vec::new(),
        incorrect: 0,
    };
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e:?}"))?;
            if v.get("correct").and_then(Value::as_bool) != Some(true) {
                runs.incorrect += 1;
            }
            let attempted = v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            runs.failed_shares.push(failed / attempted.max(1.0));
            for (name, m) in v.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    runs.metrics.entry(name.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(runs)
}

fn spec_path(args: &[String]) -> (String, Vec<String>) {
    match args {
        [flag, path, rest @ ..] if flag == "--spec" => (path.clone(), rest.to_vec()),
        _ => ("BENCHMARK.json".to_string(), args.to_vec()),
    }
}

/// `stats [--spec BENCHMARK.json] FILES...`: median, quartiles and
/// spread of every metric over all runs in the files. A spread above a
/// third of the bound is marked `wide`, above the bound `OVER`.
pub fn stats(args: &[String]) -> i32 {
    let (spec_file, files) = spec_path(args);
    let result = load_spec(&spec_file).and_then(|spec| load_runs(&files).map(|r| (spec, r)));
    let (spec, runs) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut over = false;
    println!(
        "{:<40} {:>4} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for (name, values) in &runs.metrics {
        let (Some(med), Some(q)) = (median(values), quartiles(values)) else {
            continue;
        };
        let sp = spread(values).unwrap_or(0.0);
        let bound = spec.get(name).and_then(|s| s.bound);
        let flag = match bound {
            Some(b) if sp > b && name != "setup_s" => {
                over = true;
                "OVER"
            }
            Some(b) if sp > b / 3.0 => "wide",
            _ => "",
        };
        let b = bound.map_or("-".into(), |b| format!("{b}"));
        println!(
            "{name:<40} {:>4} {med:>14.6} {:>14.6} {:>14.6} {sp:>8.4} {b:>6} {flag}",
            values.len(),
            q[0],
            q[2]
        );
    }
    let shares: std::collections::BTreeSet<u64> =
        runs.failed_shares.iter().map(|s| s.to_bits()).collect();
    println!(
        "runs: {}, incorrect: {}, distinct failed shares: {}",
        runs.failed_shares.len(),
        runs.incorrect,
        shares.len()
    );
    i32::from(over || runs.incorrect > 0 || shares.len() > 1)
}

/// `compare [--spec BENCHMARK.json] BASE NEW`: each metric's median in
/// NEW against BASE; a bounded metric worse by more than its bound is a
/// regression (exit 1).
pub fn compare(args: &[String]) -> i32 {
    let (spec_file, files) = spec_path(args);
    let [base, new] = files.as_slice() else {
        eprintln!("usage: perfbench compare [--spec BENCHMARK.json] BASE NEW");
        return 2;
    };
    let loaded = load_spec(&spec_file).and_then(|s| {
        let b = load_runs(std::slice::from_ref(base))?;
        let n = load_runs(std::slice::from_ref(new))?;
        Ok((s, b, n))
    });
    let (spec, b, n) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut worse = false;
    println!(
        "{:<40} {:>14} {:>14} {:>9} {:>6}",
        "metric", "base median", "new median", "change", "bound"
    );
    for (name, bv) in &b.metrics {
        let (Some(bm), Some(nm)) = (median(bv), n.metrics.get(name).and_then(|v| median(v))) else {
            continue;
        };
        let Some(s) = spec.get(name) else { continue };
        let verdict = match s.bound {
            Some(bound) if regressed(bm, nm, s.better, bound) => {
                worse = true;
                "REGRESSED"
            }
            Some(_) => "ok",
            None => "",
        };
        let change = if bm == 0.0 { 0.0 } else { nm / bm - 1.0 };
        let bound = s.bound.map_or("-".into(), |x| format!("{x}"));
        println!(
            "{name:<40} {bm:>14.6} {nm:>14.6} {:>+8.2}% {bound:>6} {verdict}",
            change * 100.0
        );
    }
    let share = |r: &Runs| {
        r.failed_shares
            .iter()
            .map(|s| s.to_bits())
            .collect::<std::collections::BTreeSet<_>>()
    };
    let same_failures = share(&b) == share(&n);
    println!("failed share identical: {same_failures}");
    i32::from(worse || !same_failures)
}
