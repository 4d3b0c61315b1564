//! Correlated regional PoS shocks: seeded "weather" over a mobility
//! grid.
//!
//! The i.i.d. failure models elsewhere in the repository perturb each
//! user independently. Real execution uncertainty is spatially
//! correlated — a storm front, a network outage, a road closure degrade
//! *every* worker in an area at once. A [`ShockField`] models exactly
//! that: a set of seeded [`ShockEvent`]s, each a
//! [`Region`] of the scenario's [`CityGrid`] crossed with a round
//! window and a multiplier in `[0, 1]`.
//!
//! Every user is deterministically homed to a grid cell. During a
//! shock, users homed inside the region have their **true** per-task
//! PoS multiplied down; their **declared** PoS is untouched — bidders
//! do not know the weather. The gap between declaration and truth is
//! what the execution-report redraw (driver) and the online SP oracle
//! feed on: outcomes degrade regionally while quotes, which depend only
//! on declarations, stay put.
//!
//! Overlapping events compound multiplicatively, which keeps the
//! effective multiplier inside `[0, 1]` by construction.

use mcs_mobility::grid::{Cell, CityGrid, Region};

use mcs_obs::digest::{mix64, unit};

use super::spec::ShockSpec;

/// Domain salts for the independent shock draws.
const SALT_REGION: u64 = 0x5245_4749;
const SALT_WINDOW: u64 = 0x5749_4e44;
const SALT_LEVEL: u64 = 0x4c45_5645;
const SALT_HOME: u64 = 0x484f_4d45;

/// One correlated shock: a region × round-window × PoS multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShockEvent {
    /// The affected block of cells.
    pub region: Region,
    /// First affected round.
    pub start: u64,
    /// First round *past* the window (`start < end`).
    pub end: u64,
    /// The true-PoS multiplier applied inside, in `[0, 1]`.
    pub multiplier: f64,
}

impl ShockEvent {
    /// Whether this event covers `(round, cell)`.
    pub fn covers(&self, round: u64, cell: Cell) -> bool {
        round >= self.start && round < self.end && self.region.contains(cell)
    }
}

/// The materialised shock field of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShockField {
    grid: CityGrid,
    events: Vec<ShockEvent>,
    home_seed: u64,
}

impl ShockField {
    /// Generates `spec.count` events from the scenario seed over a
    /// `rounds`-round horizon.
    pub fn generate(spec: &ShockSpec, seed: u64, rounds: u64) -> ShockField {
        let grid = CityGrid::new(spec.grid_width, spec.grid_height, 2.0);
        let mut events = Vec::with_capacity(spec.count as usize);
        for index in 0..spec.count as u64 {
            let width = 1 + (mix64(seed ^ SALT_REGION, index, 0) % spec.region_width as u64) as u32;
            let height =
                1 + (mix64(seed ^ SALT_REGION, index, 1) % spec.region_height as u64) as u32;
            let x =
                (mix64(seed ^ SALT_REGION, index, 2) % (spec.grid_width - width + 1) as u64) as u32;
            let y = (mix64(seed ^ SALT_REGION, index, 3) % (spec.grid_height - height + 1) as u64)
                as u32;
            let duration = spec.duration_min
                + mix64(seed ^ SALT_WINDOW, index, 0) % (spec.duration_max - spec.duration_min + 1);
            let start = mix64(seed ^ SALT_WINDOW, index, 1) % rounds;
            let level = spec.multiplier_min
                + (spec.multiplier_max - spec.multiplier_min) * unit(seed ^ SALT_LEVEL, index, 0);
            events.push(ShockEvent {
                region: Region {
                    x,
                    y,
                    width,
                    height,
                },
                start,
                end: (start + duration).min(rounds),
                multiplier: level,
            });
        }
        ShockField {
            grid,
            events,
            home_seed: seed ^ SALT_HOME,
        }
    }

    /// The grid the field lives on.
    pub fn grid(&self) -> &CityGrid {
        &self.grid
    }

    /// The generated events.
    pub fn events(&self) -> &[ShockEvent] {
        &self.events
    }

    /// The deterministic home cell of `user`.
    pub fn home_cell(&self, user: u32) -> Cell {
        let index = mix64(self.home_seed, user as u64, 0) % self.grid.cell_count() as u64;
        self.grid
            .cell(mcs_mobility::grid::LocationId::new(index as u32))
    }

    /// The compound multiplier over every event covering `(round, cell)`.
    pub fn multiplier(&self, round: u64, cell: Cell) -> f64 {
        self.events
            .iter()
            .filter(|event| event.covers(round, cell))
            .map(|event| event.multiplier)
            .product()
    }

    /// `pos` shocked for `user` in `round`: the true execution
    /// probability after the weather has had its say.
    pub fn shocked(&self, round: u64, user: u32, pos: f64) -> f64 {
        pos * self.multiplier(round, self.home_cell(user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShockSpec {
        ShockSpec {
            grid_width: 8,
            grid_height: 8,
            count: 4,
            multiplier_min: 0.2,
            multiplier_max: 0.8,
            duration_min: 2,
            duration_max: 5,
            region_width: 4,
            region_height: 4,
        }
    }

    #[test]
    fn events_fit_the_grid_the_window_and_the_multiplier_range() {
        let field = ShockField::generate(&spec(), 99, 16);
        assert_eq!(field.events().len(), 4);
        for event in field.events() {
            assert!(event.region.width >= 1 && event.region.width <= 4);
            assert!(event.region.x + event.region.width <= 8);
            assert!(event.region.y + event.region.height <= 8);
            assert!(event.start < event.end && event.end <= 16);
            assert!((0.2..=0.8).contains(&event.multiplier));
        }
    }

    #[test]
    fn multipliers_apply_only_inside_region_and_window() {
        let field = ShockField::generate(&spec(), 99, 16);
        let event = field.events()[0];
        let inside = Cell {
            x: event.region.x,
            y: event.region.y,
        };
        assert!(field.multiplier(event.start, inside) < 1.0);
        assert_eq!(field.multiplier(event.end, inside), {
            // Past this event's window only other events may bite.
            field
                .events()
                .iter()
                .filter(|e| e.covers(event.end, inside))
                .map(|e| e.multiplier)
                .product::<f64>()
        });
        let outside_all = (0..16).all(|round| field.multiplier(round, Cell { x: 7, y: 7 }) <= 1.0);
        assert!(outside_all);
    }

    #[test]
    fn homes_and_fields_are_seed_deterministic() {
        let a = ShockField::generate(&spec(), 99, 16);
        let b = ShockField::generate(&spec(), 99, 16);
        let c = ShockField::generate(&spec(), 100, 16);
        assert_eq!(a, b);
        assert_ne!(a.events(), c.events());
        for user in 0..64 {
            let home = a.home_cell(user);
            assert_eq!(home, b.home_cell(user));
            assert!(home.x < 8 && home.y < 8);
        }
    }

    #[test]
    fn shocked_pos_stays_a_probability() {
        let field = ShockField::generate(&spec(), 7, 16);
        for user in 0..32 {
            for round in 0..16 {
                let shocked = field.shocked(round, user, 0.9);
                assert!((0.0..=0.9).contains(&shocked));
            }
        }
    }
}
