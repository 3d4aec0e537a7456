//! The traced decomposition of one anonymize step, shared by the batch
//! and served replays.
//!
//! [`apply_traced`] makes, one public call at a time, exactly the calls
//! `FittedAnonymizer::apply_shard` makes — embed, rebind, cluster,
//! aggregate, verify, SSE — each inside its own span, so the replay's
//! release is byte-identical to the CLI's and the daemon's.

use std::cell::Cell;
use std::io::{Read, Write};
use std::rc::Rc;

use tclose_core::{
    verify_k_anonymity, verify_t_closeness_with, FittedAnonymizer, NeighborBackend,
    TCloseClusterer, TClosenessFirst,
};
use tclose_metrics::normalized_sse;
use tclose_microagg::{aggregate_columns, Parallelism};
use tclose_microdata::Table;

use crate::err;
use crate::trace::Recorder;

/// A masked shard plus what the counters need from it.
pub struct Applied {
    /// The released shard (QIs aggregated, identifiers still present).
    pub table: Table,
    /// Equivalence classes the clustering produced.
    pub clusters: usize,
    /// Audited k of the shard.
    pub k: usize,
    /// Audited t (largest class EMD) of the shard.
    pub t: f64,
    /// Normalized SSE of the shard.
    pub sse: f64,
}

/// `apply_shard`, decomposed into its public calls with one span each.
/// The shard's audited k and t are checked as the pipeline checks them.
pub fn apply_traced(
    rec: &mut Recorder,
    fitted: &FittedAnonymizer,
    shard: &Table,
) -> Result<Applied, String> {
    let fit = fitted.global_fit();
    let params = fitted.params();
    let m = rec
        .span("core.embed", |_| fit.embedding().embed(shard, fit.qi()))
        .map_err(err)?;
    let conf = rec
        .span("core.rebind", |_| {
            let whole = shard.n_rows() == fit.n_records()
                && fit.confidential().n_bound() == fit.n_records();
            if whole {
                Ok(fit.confidential().clone())
            } else {
                fit.confidential().rebind(shard)
            }
        })
        .map_err(err)?;
    let clustering = rec.span("core.cluster", |_| {
        TClosenessFirst::new()
            .with_backend(NeighborBackend::Auto)
            .with_parallelism(Parallelism::sequential())
            .cluster(&m, &conf, params)
    });
    let k_floor = params.k.min(shard.n_rows());
    clustering.check_min_size(k_floor).map_err(err)?;
    let released = rec
        .span("microagg.aggregate", |_| {
            aggregate_columns(shard, fit.qi(), &clustering)
        })
        .map_err(err)?;
    let (k, t) = rec
        .span("core.verify", |_| {
            Ok::<_, tclose_core::Error>((
                verify_k_anonymity(&released)?,
                verify_t_closeness_with(&released, &conf, Parallelism::sequential())?,
            ))
        })
        .map_err(err)?;
    if k < k_floor || t > params.t + 1e-9 {
        return Err(format!(
            "traced shard audit failed: k {k} (need {k_floor}), t {t} (need ≤ {})",
            params.t
        ));
    }
    let sse = rec
        .span("metrics.sse", |_| {
            normalized_sse(shard, &released, fit.qi())
        })
        .map_err(err)?;
    Ok(Applied {
        table: released,
        clusters: clustering.n_clusters(),
        k,
        t,
        sse,
    })
}

/// A reader that counts the bytes it hands out.
pub struct CountingReader<R> {
    inner: R,
    count: Rc<Cell<u64>>,
}

impl<R> CountingReader<R> {
    /// Wraps `inner`; the returned cell tracks the bytes read.
    pub fn new(inner: R) -> (CountingReader<R>, Rc<Cell<u64>>) {
        let count = Rc::new(Cell::new(0));
        (
            CountingReader {
                inner,
                count: Rc::clone(&count),
            },
            count,
        )
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count.set(self.count.get() + n as u64);
        Ok(n)
    }
}

/// A writer that counts the bytes it accepts.
pub struct CountingWriter<W> {
    /// The wrapped writer.
    pub inner: W,
    /// Bytes written so far.
    pub count: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
