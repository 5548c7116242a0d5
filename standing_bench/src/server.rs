//! The spawned `deept serve` and the set-up a user pays before the first
//! answer.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use deept_metrics::RegistrySnapshot;
use deept_nn::TransformerClassifier;
use deept_serve::client::request_once;
use deept_serve::protocol::{Request, Response};
use deept_verifier::VerifiableTransformer;

use crate::inputs::{self, ModelSpec};
use crate::Opts;

/// Models as loaded in set-up, before the benchmark builds its own views.
pub(crate) type RawModels = Vec<(ModelSpec, TransformerClassifier)>;

/// A spawned `deept serve`; killed and reaped on drop if not stopped.
pub(crate) struct Server {
    child: Option<Child>,
    pub(crate) addr: String,
}

impl Server {
    pub(crate) fn spawn(opts: &Opts, syn_dir: &Path, log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(&opts.deept_bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--announce", "--syn-dir"])
            .arg(syn_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        for (k, _) in std::env::vars() {
            if k.starts_with("DEEPT_") {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.deept_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading server address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("DEEPT_SHARD_ADDR ")
            .ok_or_else(|| format!("server did not announce its address (got {line:?})"))?
            .to_string();
        Ok(server)
    }

    pub(crate) fn call(&self, req: &Request) -> Result<Response, String> {
        request_once(&self.addr, req).map_err(|e| format!("{req:?}: {e}"))
    }

    pub(crate) fn metrics(&self) -> Result<RegistrySnapshot, String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { snapshot, .. } => Ok(snapshot),
            other => Err(format!("metrics request answered with {other:?}")),
        }
    }

    pub(crate) fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Asks the server to drain and exit, then reaps it (killing it if it
    /// has not exited within ten seconds).
    pub(crate) fn stop(mut self) -> Result<(), String> {
        let asked = self.call(&Request::Shutdown);
        let mut child = self.child.take().expect("server not yet stopped");
        let t = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if t.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after shutdown".into());
                }
            }
        }
        asked.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Set-up, as a user pays it: load each model, wrap it in a checkpoint
/// envelope, build the verifier view, spawn the server and load every
/// model into it. Returns the elapsed seconds and the live server.
pub(crate) fn set_up(
    root: &Path,
    opts: &Opts,
    specs: &[ModelSpec],
    n: usize,
) -> Result<(f64, Server, RawModels), String> {
    let t = Instant::now();
    let dir = opts.tmp.join(format!("setup{n}"));
    std::fs::create_dir_all(dir.join("syn")).map_err(|e| e.to_string())?;
    let mut models = Vec::new();
    let mut envelopes = Vec::new();
    for spec in specs {
        let model = inputs::load_model(root, spec)?;
        let path = dir.join(format!("{}.json", spec.id));
        deept_nn::checkpoint::save(&model, &path).map_err(|e| e.to_string())?;
        std::hint::black_box(VerifiableTransformer::from(&model));
        envelopes.push((spec.id, path));
        models.push((*spec, model));
    }
    let server = Server::spawn(opts, &dir.join("syn"), &dir.join("server.log"))?;
    for (id, path) in envelopes {
        let req = Request::LoadModel {
            model_id: id.to_string(),
            path: path.to_string_lossy().into_owned(),
        };
        match server.call(&req)? {
            Response::ModelLoaded { .. } => {}
            other => return Err(format!("load_model {id}: {other:?}")),
        }
    }
    Ok((t.elapsed().as_secs_f64(), server, models))
}
