use std::io::{Read, Seek, Write};
use std::path::Path;

use qugeo_tensor::{Array2, Array3};
use qugeo_wavesim::{model_shot, Grid, RickerWavelet, SpaceOrder, Survey, WavesimError};

use crate::{FlatLayerGenerator, GeodataError, VelocityModel};

/// One FlatVelA-style sample: a velocity model and its modelled seismic
/// data (`sources × time steps × receivers`).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The subsurface model the seismic data was generated from.
    pub velocity: VelocityModel,
    /// The shot-gather cube recorded at the surface.
    pub seismic: Array3,
}

/// Configuration for synthesising a [`Dataset`].
///
/// Defaults mirror OpenFWI FlatVelA: 70×70 maps, 5 sources, 70 receivers,
/// 1000 time steps of 1 ms, 15 Hz Ricker wavelet.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of samples to generate.
    pub num_samples: usize,
    /// Spatial/temporal discretisation.
    pub grid: Grid,
    /// Acquisition geometry.
    pub survey: Survey,
    /// Source wavelet peak frequency in Hz.
    pub wavelet_hz: f64,
    /// Spatial stencil order for the modelling.
    pub space_order: SpaceOrder,
    /// Master seed; sample `i` uses `seed + i`.
    pub seed: u64,
}

impl DatasetConfig {
    /// The paper's full setup: 500 FlatVelA samples.
    ///
    /// # Errors
    ///
    /// Never fails in practice; returns a `Result` for API uniformity
    /// with the validating constructors it is built on.
    pub fn openfwi_flatvel_a(num_samples: usize, seed: u64) -> Result<Self, GeodataError> {
        Ok(Self {
            num_samples,
            grid: Grid::openfwi_default(),
            survey: Survey::openfwi_default(),
            wavelet_hz: 15.0,
            space_order: SpaceOrder::Order4,
            seed,
        })
    }

    /// A reduced geometry for fast tests: 30×30 maps, 2 sources, 16
    /// receivers, 150 steps.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the grid and survey
    /// constructors.
    pub fn small_for_tests(num_samples: usize, seed: u64) -> Result<Self, GeodataError> {
        Ok(Self {
            num_samples,
            grid: Grid::new(30, 30, 10.0, 0.001, 150)?,
            survey: Survey::surface(30, 2, 16, 1)?,
            wavelet_hz: 15.0,
            space_order: SpaceOrder::Order4,
            seed,
        })
    }
}

/// A collection of paired velocity/seismic samples.
///
/// # Examples
///
/// ```no_run
/// use qugeo_geodata::{Dataset, DatasetConfig};
///
/// # fn main() -> Result<(), qugeo_geodata::GeodataError> {
/// let config = DatasetConfig::small_for_tests(4, 7)?;
/// let dataset = Dataset::generate(&config)?;
/// assert_eq!(dataset.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    samples: Vec<Sample>,
}

impl Dataset {
    /// Wraps existing samples.
    pub fn from_samples(samples: Vec<Sample>) -> Self {
        Self { samples }
    }

    /// Synthesises the dataset: draws a random layered model per sample
    /// and runs acoustic forward modelling for every source.
    ///
    /// Modelling dominates the cost. Every (sample, shot) pair is one work
    /// item with its own solver; the items are split into contiguous runs
    /// over `available_parallelism` worker threads, one thread budget for
    /// the whole dataset. Each gather is written straight into its
    /// sample's cube in source order, so the result does not depend on
    /// the worker count.
    ///
    /// # Errors
    ///
    /// Propagates generator and modelling errors; a modelling error is
    /// that of the first failing (sample, shot) item.
    pub fn generate(config: &DatasetConfig) -> Result<Self, GeodataError> {
        let generator = FlatLayerGenerator::new(config.grid.nz(), config.grid.nx())?;
        let wavelet = RickerWavelet::new(config.wavelet_hz, config.grid.dt())?;
        let models: Vec<VelocityModel> = (0..config.num_samples)
            .map(|i| generator.sample(config.seed.wrapping_add(i as u64)))
            .collect();

        let sources = config.survey.sources();
        let receivers = config.survey.receivers();
        let gather_len = config.grid.nt() * receivers.len();
        let mut cubes: Vec<Array3> = models
            .iter()
            .map(|_| Array3::zeros(sources.len(), config.grid.nt(), receivers.len()))
            .collect();
        let mut items: Vec<(&VelocityModel, (usize, usize), &mut [f64])> = Vec::new();
        for (model, cube) in models.iter().zip(&mut cubes) {
            let gathers = cube.as_mut_slice().chunks_mut(gather_len);
            for (&source, out) in sources.iter().zip(gathers) {
                items.push((model, source, out));
            }
        }

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let per_worker = items.len().div_ceil(workers).max(1);
        #[allow(
            clippy::expect_used,
            reason = "`model_shot` returns every input error, so a worker panic is a bug in it"
        )]
        let outcomes: Vec<Result<(), WavesimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks_mut(per_worker)
                .map(|run| {
                    scope.spawn(move || {
                        for (model, source, out) in run {
                            let gather = model_shot(
                                model.map(),
                                &config.grid,
                                *source,
                                receivers,
                                &wavelet,
                                config.space_order,
                            )?;
                            out.copy_from_slice(gather.as_slice());
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("synthesis worker panicked"))
                .collect()
        });
        // Runs are contiguous and each stops at its first error, so the
        // first error in run order is the first failing item.
        outcomes.into_iter().collect::<Result<(), _>>()?;

        let samples = models
            .into_iter()
            .zip(cubes)
            .map(|(velocity, seismic)| Sample { velocity, seismic })
            .collect();
        Ok(Self { samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterator over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Saves the dataset to a compact binary cache file.
    ///
    /// # Errors
    ///
    /// Returns [`GeodataError::Io`] on filesystem failures.
    pub fn save_bin(&self, path: &Path) -> Result<(), GeodataError> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(b"QGDS0001")?;
        write_u64(&mut f, self.samples.len() as u64)?;
        for s in &self.samples {
            // Velocity model: layer structure then map dims.
            let (nz, nx) = s.velocity.map().shape();
            write_u64(&mut f, nz as u64)?;
            write_u64(&mut f, nx as u64)?;
            write_u64(&mut f, s.velocity.layer_tops().len() as u64)?;
            for &t in s.velocity.layer_tops() {
                write_u64(&mut f, t as u64)?;
            }
            for &v in s.velocity.layer_velocities() {
                write_f64(&mut f, v)?;
            }
            // Seismic cube.
            let (d0, d1, d2) = s.seismic.shape();
            write_u64(&mut f, d0 as u64)?;
            write_u64(&mut f, d1 as u64)?;
            write_u64(&mut f, d2 as u64)?;
            for &v in s.seismic.as_slice() {
                write_f64(&mut f, v)?;
            }
        }
        f.flush()?;
        Ok(())
    }

    /// Loads a dataset previously written by [`Dataset::save_bin`].
    ///
    /// # Errors
    ///
    /// Returns [`GeodataError::Io`] on filesystem failures or
    /// [`GeodataError::CorruptCache`] for malformed files.
    pub fn load_bin(path: &Path) -> Result<Self, GeodataError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut f = std::io::BufReader::new(file);
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic != b"QGDS0001" {
            return Err(GeodataError::CorruptCache {
                reason: "bad magic header".into(),
            });
        }
        // The sample count, each layer count and each cube size are
        // bounded by the bytes left in the file before anything is
        // reserved for them, so a corrupt header is a typed error rather
        // than a huge allocation.
        let count = read_u64(&mut f)?;
        // A sample takes at least 64 bytes: nz, nx, the layer count, one
        // layer's top and velocity, and the three cube dims.
        if count > bytes_left(&mut f, len)? / 64 {
            return Err(GeodataError::CorruptCache {
                reason: format!("sample count {count} exceeds the file"),
            });
        }
        let mut samples = Vec::new();
        for _ in 0..count {
            let nz = read_u64(&mut f)? as usize;
            let nx = read_u64(&mut f)? as usize;
            let n_layers = read_u64(&mut f)? as usize;
            // A layer takes 16 bytes: its top and its velocity.
            if n_layers == 0 || n_layers > nz || n_layers as u64 > bytes_left(&mut f, len)? / 16 {
                return Err(GeodataError::CorruptCache {
                    reason: format!("bad layer count {n_layers}"),
                });
            }
            let mut tops = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                tops.push(read_u64(&mut f)? as usize);
            }
            let mut vels = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                vels.push(read_f64(&mut f)?);
            }
            let velocity =
                VelocityModel::from_layers(nz, nx, tops, vels).map_err(|e| {
                    GeodataError::CorruptCache {
                        reason: format!("invalid layers: {e}"),
                    }
                })?;

            let d0 = read_u64(&mut f)? as usize;
            let d1 = read_u64(&mut f)? as usize;
            let d2 = read_u64(&mut f)? as usize;
            let total = d0
                .checked_mul(d1)
                .and_then(|v| v.checked_mul(d2))
                .ok_or_else(|| GeodataError::CorruptCache {
                    reason: "seismic dims overflow".into(),
                })?;
            if total as u64 > bytes_left(&mut f, len)? / 8 {
                return Err(GeodataError::CorruptCache {
                    reason: format!("cube of {total} values exceeds the file"),
                });
            }
            let mut data = Vec::with_capacity(total);
            for _ in 0..total {
                data.push(read_f64(&mut f)?);
            }
            let seismic = Array3::from_vec(d0, d1, d2, data).map_err(|e| {
                GeodataError::CorruptCache {
                    reason: format!("invalid cube: {e}"),
                }
            })?;
            samples.push(Sample { velocity, seismic });
        }
        Ok(Self { samples })
    }

    /// The mean velocity map over the dataset — a trivial predictor used
    /// as a sanity baseline in the experiments.
    ///
    /// Returns `None` for an empty dataset or inconsistent shapes.
    pub fn mean_velocity_map(&self) -> Option<Array2> {
        let first = self.samples.first()?;
        let shape = first.velocity.map().shape();
        let mut acc = Array2::zeros(shape.0, shape.1);
        for s in &self.samples {
            if s.velocity.map().shape() != shape {
                return None;
            }
            acc = &acc + s.velocity.map();
        }
        Some(acc.scaled(1.0 / self.samples.len() as f64))
    }
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Bytes of a `len`-byte file not yet read through `f`.
fn bytes_left<S: Seek>(f: &mut S, len: u64) -> std::io::Result<u64> {
    Ok(len.saturating_sub(f.stream_position()?))
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f64<R: Read>(r: &mut R) -> std::io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(n: usize) -> DatasetConfig {
        DatasetConfig {
            num_samples: n,
            grid: Grid::new(20, 20, 10.0, 0.001, 60).unwrap(),
            survey: Survey::surface(20, 2, 8, 1).unwrap(),
            wavelet_hz: 15.0,
            space_order: SpaceOrder::Order4,
            seed: 11,
        }
    }

    #[test]
    fn generate_produces_paired_samples() {
        let ds = Dataset::generate(&tiny_config(3)).unwrap();
        assert_eq!(ds.len(), 3);
        for s in ds.iter() {
            assert_eq!(s.velocity.map().shape(), (20, 20));
            assert_eq!(s.seismic.shape(), (2, 60, 8));
            let energy: f64 = s.seismic.iter().map(|v| v * v).sum();
            assert!(energy > 0.0, "seismic data has no signal");
        }
    }

    #[test]
    fn every_cube_stacks_its_shots_in_source_order() {
        // Five samples of two shots: items of one sample may land on
        // different workers, yet each cube equals a per-sample run.
        let cfg = tiny_config(5);
        let ds = Dataset::generate(&cfg).unwrap();
        let wavelet = RickerWavelet::new(cfg.wavelet_hz, cfg.grid.dt()).unwrap();
        for s in ds.iter() {
            let cube = qugeo_wavesim::model_shots(
                s.velocity.map(),
                &cfg.grid,
                &cfg.survey,
                &wavelet,
                cfg.space_order,
            )
            .unwrap();
            assert_eq!(s.seismic, cube);
        }
    }

    #[test]
    fn generating_no_samples_gives_an_empty_dataset() {
        assert!(Dataset::generate(&tiny_config(0)).unwrap().is_empty());
    }

    #[test]
    fn a_modelling_error_is_returned_not_panicked() {
        // 1 s steps break the CFL limit of every sampled model.
        let cfg = DatasetConfig {
            grid: Grid::new(20, 20, 10.0, 1.0, 4).unwrap(),
            wavelet_hz: 0.05,
            ..tiny_config(3)
        };
        assert!(matches!(
            Dataset::generate(&cfg),
            Err(GeodataError::Modeling(WavesimError::CflViolation { .. }))
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&tiny_config(2)).unwrap();
        let b = Dataset::generate(&tiny_config(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = tiny_config(1);
        let a = Dataset::generate(&cfg).unwrap();
        cfg.seed = 99;
        let b = Dataset::generate(&cfg).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn save_load_roundtrip() {
        let ds = Dataset::generate(&tiny_config(2)).unwrap();
        let dir = std::env::temp_dir().join("qugeo_geodata_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bin");
        ds.save_bin(&path).unwrap();
        let loaded = Dataset::load_bin(&path).unwrap();
        assert_eq!(ds, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("qugeo_geodata_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.bin");
        std::fs::write(&path, b"not a dataset").unwrap();
        assert!(Dataset::load_bin(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Loads a cache file holding the magic and then `words` as
    /// little-endian `u64`s.
    fn load_words(name: &str, words: &[u64]) -> Result<Dataset, GeodataError> {
        let dir = std::env::temp_dir().join("qugeo_geodata_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut bytes = b"QGDS0001".to_vec();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let loaded = Dataset::load_bin(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn a_layer_count_beyond_the_file_is_corrupt_not_a_panic() {
        // The magic, count 1, nz 2^62, nx 1 and 2^61 layers: reserving
        // that many layer tops overflows capacity, so the header must be
        // rejected first. As 40 bytes the sample count already exceeds
        // the file; five words of padding make the layer count the field
        // that does.
        for padding in [0, 5] {
            let mut words = vec![1, 1 << 62, 1, 1 << 61];
            words.resize(words.len() + padding, 0);
            let loaded = load_words("huge_layers.bin", &words);
            assert!(
                matches!(loaded, Err(GeodataError::CorruptCache { .. })),
                "padding {padding}: {loaded:?}"
            );
        }
    }

    #[test]
    fn a_map_beyond_the_address_space_is_corrupt_not_a_panic() {
        // 88 bytes: the magic, count 1, nz 2^61, nx 1, one layer at top 0
        // and 1500 m/s, then a 1×1×1 cube. Every length field is backed
        // by the file, but 2^61 cells of f64 overflow `isize::MAX` bytes.
        let words = [1, 1 << 61, 1, 1, 0, 1500f64.to_bits(), 1, 1, 1, 0];
        let loaded = load_words("huge_map.bin", &words);
        assert!(
            matches!(loaded, Err(GeodataError::CorruptCache { .. })),
            "{loaded:?}"
        );
    }

    #[test]
    fn a_cube_beyond_the_file_is_corrupt_before_it_is_reserved() {
        // A valid one-layer 2×1 model, then a cube header claiming 500M
        // values (4 GB) with no data behind it.
        let words = [1, 2, 1, 1, 0, 1500f64.to_bits(), 500, 1000, 1000];
        let loaded = load_words("huge_cube.bin", &words);
        assert!(
            matches!(loaded, Err(GeodataError::CorruptCache { .. })),
            "{loaded:?}"
        );
    }

    #[test]
    fn mean_velocity_map_averages() {
        let m1 = VelocityModel::from_layers(4, 4, vec![0], vec![2000.0]).unwrap();
        let m2 = VelocityModel::from_layers(4, 4, vec![0], vec![4000.0]).unwrap();
        let ds = Dataset::from_samples(vec![
            Sample {
                velocity: m1,
                seismic: Array3::zeros(1, 1, 1),
            },
            Sample {
                velocity: m2,
                seismic: Array3::zeros(1, 1, 1),
            },
        ]);
        let mean = ds.mean_velocity_map().unwrap();
        assert!(mean.iter().all(|&v| v == 3000.0));
        assert!(Dataset::default().mean_velocity_map().is_none());
    }
}
