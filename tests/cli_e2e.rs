//! The `dgrid` binary driven end to end, at the 96 × 400 cell EXPERIMENTS.md
//! records its `compare` tables at.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "common/pin.rs"]
mod pin;

use pin::Pin;

fn dgrid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgrid"))
        .args(args)
        .output()
        .expect("spawn dgrid")
}

/// `dgrid <args>` run inside `dir`, so relative output paths (and the
/// "wrote ... to" lines naming them) are the same on every machine.
fn dgrid_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgrid"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn dgrid")
}

/// An empty directory of its own for one test's output files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgrid-cli-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `dgrid compare --nodes 96 --jobs 400 <extra>`, which must exit 0.
fn compare(extra: &[&str]) -> Vec<u8> {
    let out = dgrid(&[&["compare", "--nodes", "96", "--jobs", "400"], extra].concat());
    assert!(out.status.success(), "compare {extra:?}: {:?}", out.status);
    out.stdout
}

/// The bytes of `dir/name`.
fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).expect("read output file")
}

/// Recorded at `7198c56`, before `compare` learned `--replications`: one
/// replication keeps `--seed` itself and every byte of the table.
#[test]
fn compare_at_one_replication_prints_the_pinned_bytes() {
    let stdout = compare(&[]);
    assert_eq!(
        Pin::of(&stdout),
        (0x4074_3eaf_dc26_a30d, 879),
        "{}",
        String::from_utf8_lossy(&stdout)
    );
}

#[test]
fn replicated_compare_averages_new_seeds_the_same_at_any_thread_count() {
    let row = |out: &[u8]| {
        let table = String::from_utf8_lossy(out).into_owned();
        let row = table.lines().find(|l| l.starts_with("rn-tree "));
        row.expect("an rn-tree row").to_string()
    };
    let one_thread = compare(&["--replications", "4", "--threads", "1"]);
    assert_eq!(
        one_thread,
        compare(&["--replications", "4", "--threads", "2"])
    );
    assert_ne!(
        row(&one_thread),
        row(&compare(&[])),
        "--replications ignored"
    );
}

/// The stderr of an invocation that must exit 2 (a panic exits 101).
fn refused(args: &[&str]) -> String {
    let out = dgrid(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn file_and_flag_errors_name_themselves_and_exit_2() {
    let missing = refused(&["report", "--events", "/nonexistent"]);
    assert!(missing.contains("/nonexistent") && missing.lines().count() == 1);
    assert!(refused(&["run", "--nodes", "abc"]).starts_with("--nodes: \"abc\" is not a number\n"));
    assert!(refused(&["run", "--foo", "1"]).starts_with("unknown flag --foo\n"));
    // Values the library would assert on, or that would hang `watch`, are
    // refused by the parser.
    let names_itself = |args: &[&str], flag: &str, val: &str| {
        let stderr = refused(args);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("{flag}: {val:?} is not ")),
            "{first}"
        );
    };
    let timeseries = ["--timeseries", "/nonexistent/ts.json"];
    let leased = ["--lease-ttl", "60"];
    for (flag, val, extra) in [
        ("--nodes", "0", &[][..]),
        ("--jobs", "0", &[]),
        ("--k", "0", &[]),
        ("--loss", "2", &[]),
        ("--mttf", "-1", &[]),
        ("--lease-ttl", "0", &[]),
        ("--partition", "10:5:1", &[]),
        ("--sample-secs", "0", &timeseries),
        ("--rejoin", "-5", &[]),
        ("--graceful", "2", &[]),
        ("--graceful", "-1", &[]),
        ("--lease-renew", "0", &leased),
        ("--lease-renew", "-3", &leased),
        ("--lease-grace", "-1", &leased),
        ("--lease-ttl", "30", &[]),
        ("--lease-ttl", "20", &["--lease-renew", "20"]),
    ] {
        names_itself(&[&["run", flag, val], extra].concat(), flag, val);
    }
    // The ttl is held to the renew interval `check` defaults to (15 s).
    names_itself(&["check", "--lease-ttl", "15"], "--lease-ttl", "15");
    let watch = ["watch", "--events", "/nonexistent"];
    for (flag, val, extra) in [
        ("--window", "0", &[][..]),
        ("--window", "-1", &[]),
        ("--refresh", "0", &["--follow", "--idle-exit", "0.5"]),
    ] {
        names_itself(&[&watch[..], &[flag, val], extra].concat(), flag, val);
    }
    // A flag the command does not read, a classic knob beside a scenario
    // file and a lease flag without a ttl are one line naming the flag and
    // the command, never silently dropped.
    for (args, line) in [
        (
            &["check", "--loss", "0.2"][..],
            "dgrid check does not take --loss",
        ),
        (
            &["check", "--nodes", "9"],
            "dgrid check does not take --nodes",
        ),
        (
            &["compare", "--algorithm", "can"],
            "dgrid compare does not take --algorithm",
        ),
        (
            &["compare", "--events", "f"],
            "dgrid compare does not take --events",
        ),
        (
            &["report", "--replications", "2"],
            "dgrid report does not take --replications",
        ),
        (
            &["watch", "--seeds", "3"],
            "dgrid watch does not take --seeds",
        ),
        (
            &["events", "convert", "--follow"],
            "dgrid events convert does not take --follow",
        ),
        (
            &["run", "--scenario-file", "flash-crowd", "--nodes", "5"],
            "dgrid run takes --scenario-file or --nodes, not both",
        ),
        (
            &["run", "--lease-renew", "10"],
            "dgrid run takes --lease-renew only with --lease-ttl",
        ),
    ] {
        assert_eq!(refused(args), format!("{line}\n"), "{args:?}");
    }
    for (flag, val) in [
        ("--scenario", "mixed/heavy"),
        ("--jobs", "5"),
        ("--mttf", "10"),
        ("--rejoin", "10"),
        ("--graceful", "0.5"),
        ("--loss", "0.9"),
        ("--partition", "1:2:3"),
    ] {
        let line = format!("dgrid compare takes {flag} or --scenario-file, not both\n");
        let args = ["compare", flag, val, "--scenario-file", "flash-crowd"];
        assert_eq!(refused(&args), line);
    }
    for (flag, val) in [("--lease-grace", "5"), ("--placement", "hash")] {
        let line = format!("dgrid check takes {flag} only with --lease-ttl\n");
        assert_eq!(refused(&["check", flag, val]), line);
    }
    // Replications sample no time series: the pair is refused before
    // anything runs, and no file is left behind.
    let dir = scratch_dir("replicated-series");
    let args = ["run", "--replications", "2", "--timeseries", "ts.json"];
    let out = dgrid_in(&dir, &args);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "dgrid run takes --timeseries only with --replications 1\n"
    );
    assert!(!dir.join("ts.json").exists(), "{args:?} wrote its file");
    let _ = std::fs::remove_dir_all(&dir);
    let gone = refused(&["bench", "sweep"]);
    assert!(gone.contains("benchmark/Cargo.toml") && gone.contains("compare --replications"));
    assert_eq!(gone.lines().count(), 1);
}

/// An output path that cannot be written is refused with exit 2 before
/// anything runs or prints: the file is created (or, for `check`'s
/// artifact, its directory probed) before the simulation.
#[test]
fn bad_output_paths_are_refused_before_the_run() {
    let cell = ["--nodes", "32", "--jobs", "50"];
    let bad = "/nonexistent/x.json";
    let create = format!("cannot create {bad}: ");
    let artifact = format!("cannot write repro artifact {bad}: ");
    for (args, first) in [
        (&["run", "--json", bad][..], &create),
        (&["compare", "--json", bad], &create),
        (&["run", "--timeseries", bad], &create),
        (&["run", "--events", bad], &create),
        (&["run", "--replications", "2", "--events", bad], &create),
    ] {
        let out = dgrid(&[args, &cell].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(first.as_str()), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
    let sweep = ["check", "--seeds", "4", "--seed", "0"];
    let injected = ["--inject-bug", "epoch-dedup"];
    for args in [
        [&sweep[..], &injected, &["--out", bad]].concat(),
        [&sweep[..], &["--out", bad]].concat(),
    ] {
        let out = dgrid(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(artifact.as_str()), "{args:?}: {stderr}");
    }
    // A directory is no artifact path either; a clean sweep with a good
    // one writes nothing there.
    let dir = scratch_dir("bad-out");
    let out = dgrid_in(&dir, &[&sweep[..], &["--out", "."]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let out = dgrid_in(&dir, &[&sweep[..], &["--out", "repro.json"]].concat());
    assert!(out.status.success(), "{:?}", out.status);
    assert!(
        !dir.join("repro.json").exists(),
        "a clean sweep wrote its artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The usage lines `dgrid` prints come from the tables the parser reads,
/// so they list exactly the flags each command takes.
/// A stream that cannot be written is one line and exit code 2, as
/// `events convert` reports it, not a panic: `/dev/full` opens and refuses
/// every write. Single runs stream as they go; replicated ones write their
/// concatenated streams after the runs.
#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_event_stream_is_one_line_and_exit_2() {
    let full = "cannot write /dev/full: No space left on device (os error 28)\n";
    let run = [
        "run",
        "--algorithm",
        "central",
        "--nodes",
        "50",
        "--jobs",
        "2000",
    ];
    for extra in [
        &[][..],
        &["--format", "binary"],
        &["--replications", "2"],
        &["--replications", "2", "--format", "binary"],
    ] {
        let args = [&run[..], &["--events", "/dev/full"], extra].concat();
        assert_eq!(refused(&args), full, "{extra:?}");
    }
}

#[test]
fn each_command_takes_exactly_its_flags() {
    let compare = "--scenario --scenario-file --nodes --jobs --seed --mttf --rejoin --graceful \
                   --k --loss --partition --lease-ttl --lease-renew --lease-grace --placement \
                   --threads --replications --json";
    let run = format!("{compare} --algorithm --events --format --timeseries --sample-secs");
    let check = "--seeds --seed --out --replay --inject-bug --matchmaker --scenario-file \
                 --lease-ttl --lease-renew --lease-grace --placement --threads";
    let stderr = refused(&[]);
    for (command, flags) in [
        ("run", run.as_str()),
        ("compare", compare),
        ("report", "--events --timeseries --timeline --width"),
        (
            "watch",
            "--events --follow --window --refresh --idle-exit --width",
        ),
        ("events convert", "--events --out --to"),
        ("check", check),
    ] {
        let prefix = format!("usage: dgrid {command} ");
        let line = stderr.lines().find(|l| l.starts_with(&prefix));
        let line = line.unwrap_or_else(|| panic!("no usage line for {command}: {stderr}"));
        let mut listed: Vec<&str> = line
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|word| word.starts_with("--"))
            .collect();
        let mut want: Vec<&str> = flags.split_whitespace().collect();
        listed.sort_unstable();
        want.sort_unstable();
        assert_eq!(listed, want, "{command}");
    }
}

/// Recorded at `208be5f`, before `dgrid check` and `dgrid run` built their
/// engines through one function: the injected-bug sweeps (plain and leased)
/// find, shrink and write the same violation, and its replay prints the
/// same lines.
#[test]
fn injected_check_sweeps_and_their_replay_print_the_pinned_bytes() {
    let sweep = ["check", "--seeds", "4", "--seed", "0", "--threads", "1"];
    let inject = ["--inject-bug", "epoch-dedup", "--out", "a.json"];
    let lease = ["--lease-ttl", "60", "--lease-renew", "15"];
    for (name, extra, stdout_pin, artifact_pin) in [
        (
            "check-plain",
            &[][..],
            (0x0e49_8954_7c20_5ec9, 694),
            (0x0304_9316_41de_3175, 2041),
        ),
        (
            "check-leased",
            &lease[..],
            (0x11d0_3af1_d7ce_b75c, 2000),
            (0x5bf5_4541_2a67_157f, 2256),
        ),
    ] {
        let dir = scratch_dir(name);
        let out = dgrid_in(&dir, &[&sweep[..], &inject, extra].concat());
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(Pin::of(&out.stdout), stdout_pin, "{name}: {stdout}");
        assert_eq!(
            Pin::of(&read(&dir, "a.json")),
            artifact_pin,
            "{name} artifact"
        );
        if extra.is_empty() {
            let replay = dgrid_in(&dir, &["check", "--replay", "a.json"]);
            assert_eq!(replay.status.code(), Some(1));
            let stdout = String::from_utf8_lossy(&replay.stdout);
            assert_eq!(
                Pin::of(&replay.stdout),
                (0x90b6_9475_8038_f373, 340),
                "{stdout}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recorded at `208be5f`: a scenario-file run and a classic-flag run with
/// churn, loss, a partition and leases print and stream the same bytes.
#[test]
fn scenario_file_and_classic_runs_print_and_stream_the_pinned_bytes() {
    let dir = scratch_dir("runs");
    let binary = ["--format", "binary"];
    let scenario = ["run", "--scenario-file", "flash-crowd", "--seed", "7"];
    let classic = [
        "run",
        "--nodes",
        "200",
        "--jobs",
        "1000",
        "--seed",
        "7",
        "--mttf",
        "3000",
        "--rejoin",
        "300",
        "--loss",
        "0.05",
        "--partition",
        "100:400:1,2,3",
        "--lease-ttl",
        "60",
        "--lease-renew",
        "15",
    ];
    for (args, file, stdout_pin, stream_pin) in [
        (
            &scenario[..],
            "fc.bin",
            (0x5021_926e_cf12_e751, 824),
            (0xae93_3ade_e45a_714a, 34543),
        ),
        (
            &classic[..],
            "cl.bin",
            (0x8eb8_8e9f_d47e_10e6, 724),
            (0x8abe_ee7c_2fb1_0916, 57602),
        ),
    ] {
        let out = dgrid_in(&dir, &[args, &["--events", file], &binary].concat());
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(Pin::of(&out.stdout), stdout_pin, "{stdout}");
        assert_eq!(Pin::of(&read(&dir, file)), stream_pin, "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recorded at `b06d608`, before `report`, `watch` and `events convert`
/// read streams through one decoder: one leased churn run recorded in both
/// formats renders, watches and converts to the same bytes.
#[test]
fn recorded_streams_report_watch_and_convert_to_the_pinned_bytes() {
    let dir = scratch_dir("streams");
    let run = [
        "run",
        "--nodes",
        "64",
        "--jobs",
        "200",
        "--seed",
        "3",
        "--mttf",
        "3000",
        "--rejoin",
        "300",
        "--lease-ttl",
        "60",
    ];
    let jsonl = (0xd9cd_2311_b16a_7f48, 81067);
    let binary = (0x4ebf_8af7_c66f_648e, 11037);
    for (file, format, stream_pin, watch_pin) in [
        ("s.jsonl", "jsonl", jsonl, (0xb35a_7d26_dfba_a268, 722)),
        ("s.bin", "binary", binary, (0xe46f_7526_28b4_9986, 721)),
    ] {
        let out = dgrid_in(
            &dir,
            &[&run[..], &["--events", file, "--format", format]].concat(),
        );
        assert!(out.status.success(), "{format}: {:?}", out.status);
        assert_eq!(Pin::of(&read(&dir, file)), stream_pin, "{file}");
        let report = dgrid_in(&dir, &["report", "--events", file, "--timeline", "5"]);
        assert!(report.status.success(), "report {file}");
        let stdout = String::from_utf8_lossy(&report.stdout);
        assert_eq!(
            Pin::of(&report.stdout),
            (0x732f_48fd_8c57_a2a5, 1122),
            "{stdout}"
        );
        let watch = dgrid_in(&dir, &["watch", "--events", file]);
        assert!(watch.status.success(), "watch {file}");
        let stdout = String::from_utf8_lossy(&watch.stdout);
        assert_eq!(Pin::of(&watch.stdout), watch_pin, "{stdout}");
    }
    for (from, to, want) in [("s.jsonl", "c.bin", binary), ("s.bin", "c.jsonl", jsonl)] {
        let out = dgrid_in(&dir, &["events", "convert", "--events", from, "--out", to]);
        assert!(out.status.success(), "convert {from}");
        assert_eq!(Pin::of(&read(&dir, to)), want, "{to}");
    }
    // A stream converts in place, and one cut off mid-frame writes nothing.
    let in_place = ["events", "convert", "--events", "c.bin", "--out", "c.bin"];
    assert!(
        dgrid_in(&dir, &in_place).status.success(),
        "convert in place"
    );
    assert_eq!(Pin::of(&read(&dir, "c.bin")), jsonl, "c.bin");
    let bytes = read(&dir, "s.bin");
    std::fs::write(dir.join("cut.bin"), &bytes[..bytes.len() - 1]).expect("write cut.bin");
    let cut = [
        "events",
        "convert",
        "--events",
        "cut.bin",
        "--out",
        "cut.jsonl",
    ];
    assert_eq!(dgrid_in(&dir, &cut).status.code(), Some(2));
    assert!(
        !dir.join("cut.jsonl").exists(),
        "a malformed stream wrote output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
