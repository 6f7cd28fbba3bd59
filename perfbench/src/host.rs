//! The runner's side of the host process: spawn it, read its `key=value`
//! status lines with a deadline, and stop it.
//!
//! Every line the host prints starts with a tag word (`listen`, `summary`,
//! `setup`, `ready`, `pass`, `timed`, `result`) followed by space-separated
//! `key=value` fields or plain values.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long any single host status line may take.
pub const LINE_TIMEOUT: Duration = Duration::from_secs(120);

/// A running host process. Dropping it kills and reaps the process.
pub struct Host {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Host {
    /// Starts the host binary next to the running executable.
    pub fn spawn(args: &[String]) -> io::Result<Host> {
        let exe = std::env::current_exe()?.with_file_name("perfbench-host");
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Host {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the next line tagged `tag` and returns the rest of it.
    /// Lines with other tags are echoed to stderr.
    pub fn expect(&mut self, tag: &str) -> io::Result<String> {
        Ok(self.expect_any(&[tag])?.unwrap_or_default())
    }

    /// Waits for the next line tagged with one of `tags`: `Some(rest)` for
    /// the first tag, `None` for any other. Lines with other tags are
    /// echoed to stderr.
    pub fn expect_any(&mut self, tags: &[&str]) -> io::Result<Option<String>> {
        loop {
            let line = self.lines.recv_timeout(LINE_TIMEOUT).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("host sent none of {tags:?}"),
                )
            })?;
            let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
            match tags.iter().position(|t| *t == tag) {
                Some(0) => return Ok(Some(rest.to_string())),
                Some(_) => return Ok(None),
                None => eprintln!("[host] {line}"),
            }
        }
    }

    /// Sends one command line to the host.
    pub fn send(&mut self, command: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("host stdin already closed"))?;
        writeln!(stdin, "{command}")?;
        stdin.flush()
    }

    /// Sends `stop`, reads the host's `summary` line and reaps it.
    pub fn stop(mut self) -> io::Result<BTreeMap<String, String>> {
        self.send("stop")?;
        let summary = self.expect("summary")?;
        self.finish()?;
        Ok(fields(&summary))
    }

    /// Closes stdin and waits for the host to exit on its own.
    pub fn finish(&mut self) -> io::Result<()> {
        self.stdin = None;
        let status = self.child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("host exited with {status}")))
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Parses `key=value` fields; words without `=` are skipped.
pub fn fields(line: &str) -> BTreeMap<String, String> {
    line.split_whitespace()
        .filter_map(|word| word.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A numeric field, or an `InvalidData` error naming it.
pub fn number(fields: &BTreeMap<String, String>, key: &str) -> io::Result<f64> {
    fields.get(key).and_then(|v| v.parse().ok()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("host reported no numeric `{key}`"),
        )
    })
}
