//! Seeded inputs: the characterized cell library and the nets every
//! workload analyzes, buildable both as facade stages and as wire stages.

use std::path::Path;
use std::sync::Arc;

use rlc_ceff_suite::charlib::{CharacterizationGrid, DriverCell, Library};
use rlc_ceff_suite::interconnect::prelude::*;
use rlc_ceff_suite::numeric::stats::Rng;
use rlc_ceff_suite::{
    DistributedRlcLoad, LoadModel, RlcTreeLoad, Stage, StageBuilder, StageHandle,
};
use rlc_service::{RemoteCell, RemoteHandle, RemoteLoad, RemoteStage};

/// Drive strengths of the paper's sweep (Figure 7), less its 25X driver,
/// whose Ceff iteration does not converge on some long wide lines.
pub const SIZES: [f64; 4] = [50.0, 75.0, 100.0, 125.0];

/// Input delay of every primary input, stated explicitly so in-process and
/// remote stages carry the same event.
pub const INPUT_DELAY: f64 = 20e-12;

/// The cells of [`SIZES`], characterized on the default grid.
pub struct Cells(Vec<(f64, Arc<DriverCell>)>);

impl Cells {
    /// Characterizes every size, persisting the cells to `cache` when set.
    pub fn characterize(cache: Option<&Path>) -> Result<Cells, String> {
        let mut library = match cache {
            Some(dir) => Library::open_cached(dir).map_err(|e| e.to_string())?,
            None => Library::new(CharacterizationGrid::default()),
        };
        SIZES
            .iter()
            .map(|&size| {
                library
                    .cell_shared(size)
                    .map(|cell| (size, cell))
                    .map_err(|e| format!("characterizing the {size}X driver: {e}"))
            })
            .collect::<Result<_, _>>()
            .map(Cells)
    }

    pub fn get(&self, size: f64) -> Arc<DriverCell> {
        self.0
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, cell)| cell.clone())
            .expect("nets only use characterized sizes")
    }
}

/// The interconnect of one net.
#[derive(Debug, Clone, Copy)]
pub enum Wire {
    /// A single distributed RLC line.
    Line { length_mm: f64, width_um: f64 },
    /// A trunk forking into two branches, each ending in a receiver pin.
    Fork {
        trunk_mm: f64,
        branch_mm: [f64; 2],
        width_um: f64,
    },
}

/// One driver/interconnect stage description.
#[derive(Debug, Clone, Copy)]
pub struct Net {
    pub size: f64,
    pub wire: Wire,
    /// Receiver pin capacitance (farads), per sink.
    pub c_load: f64,
    /// Input slew when the net is a primary input (seconds).
    pub slew: f64,
}

/// Where a stage's input comes from.
#[derive(Debug, Clone, Copy)]
pub enum Input<H> {
    /// A primary input ramp.
    Event { slew: f64, delay: f64 },
    /// The far end of an earlier stage.
    After(H),
}

fn line(length_mm: f64, width_um: f64) -> RlcLine {
    EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(length_mm), um(width_um)))
}

impl Net {
    /// A net from the paper's sweep envelope (Figure 7: 1-7 mm, 0.8-3.5 um,
    /// 50-200 ps); one in four is a forked tree instead of a line.
    pub fn sweep(rng: &mut Rng) -> Net {
        let size = SIZES[(rng.next_u64() % SIZES.len() as u64) as usize];
        let wire = if rng.next_u64().is_multiple_of(4) {
            Wire::Fork {
                trunk_mm: rng.uniform_in(1.0, 3.0),
                branch_mm: [rng.uniform_in(0.5, 2.5), rng.uniform_in(0.5, 2.5)],
                width_um: rng.uniform_in(0.8, 1.6),
            }
        } else {
            Wire::Line {
                length_mm: rng.uniform_in(1.0, 7.0),
                width_um: rng.uniform_in(0.8, 3.5),
            }
        };
        Net {
            size,
            wire,
            c_load: ff(rng.uniform_in(5.0, 50.0)),
            slew: ps(rng.uniform_in(50.0, 200.0)),
        }
    }

    /// A repeater segment of a timing path: short lines, so every handoff
    /// stays inside the characterized slew range.
    pub fn repeater(rng: &mut Rng) -> Net {
        let size = SIZES[(rng.next_u64() % SIZES.len() as u64) as usize];
        Net {
            size,
            wire: Wire::Line {
                length_mm: rng.uniform_in(0.5, 3.0),
                width_um: rng.uniform_in(0.8, 1.6),
            },
            c_load: ff(rng.uniform_in(5.0, 40.0)),
            slew: ps(rng.uniform_in(50.0, 150.0)),
        }
    }

    fn tree(trunk_mm: f64, branch_mm: [f64; 2], width_um: f64, c_load: f64) -> RlcTree {
        let mut tree = RlcTree::new();
        let trunk = tree.add_branch(None, line(trunk_mm, width_um));
        for (name, length) in ["a", "b"].into_iter().zip(branch_mm) {
            let branch = tree.add_branch(Some(trunk), line(length, width_um));
            tree.set_sink(branch, name, c_load);
        }
        tree
    }

    pub fn load(&self) -> Result<Arc<dyn LoadModel>, String> {
        Ok(match self.wire {
            Wire::Line {
                length_mm,
                width_um,
            } => Arc::new(
                DistributedRlcLoad::new(line(length_mm, width_um), self.c_load)
                    .map_err(|e| e.to_string())?,
            ),
            Wire::Fork {
                trunk_mm,
                branch_mm,
                width_um,
            } => Arc::new(
                RlcTreeLoad::new(Net::tree(trunk_mm, branch_mm, width_um, self.c_load))
                    .map_err(|e| e.to_string())?,
            ),
        })
    }

    pub fn remote_load(&self) -> RemoteLoad {
        match self.wire {
            Wire::Line {
                length_mm,
                width_um,
            } => RemoteLoad::line(&line(length_mm, width_um), self.c_load),
            Wire::Fork {
                trunk_mm,
                branch_mm,
                width_um,
            } => RemoteLoad::from_tree(&Net::tree(trunk_mm, branch_mm, width_um, self.c_load)),
        }
    }

    /// The primary input event of this net.
    pub fn event<H>(&self) -> Input<H> {
        Input::Event {
            slew: self.slew,
            delay: INPUT_DELAY,
        }
    }

    pub fn builder(
        &self,
        cells: &Cells,
        label: String,
        input: Input<StageHandle>,
    ) -> Result<StageBuilder, String> {
        let builder = Stage::builder_shared(cells.get(self.size), self.load()?).label(label);
        Ok(match input {
            Input::Event { slew, delay } => builder.input_slew(slew).input_delay(delay),
            Input::After(producer) => builder.input_from(producer),
        })
    }

    pub fn stage(
        &self,
        cells: &Cells,
        label: String,
        input: Input<StageHandle>,
    ) -> Result<Stage, String> {
        self.builder(cells, label, input)?
            .build()
            .map_err(|e| e.to_string())
    }

    pub fn remote_stage(&self, label: String, input: Input<RemoteHandle>) -> RemoteStage {
        let builder =
            RemoteStage::builder(RemoteCell::characterized(self.size), self.remote_load())
                .label(label);
        match input {
            Input::Event { slew, delay } => builder.input_slew(slew).input_delay(delay),
            Input::After(producer) => builder.input_from(producer),
        }
        .build()
    }
}
